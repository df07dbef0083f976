"""A small SQL parser for the dialect used throughout the paper.

Grammar (case-insensitive keywords)::

    query       := SELECT select_list FROM from_item
                   (WHERE predicate)? (GROUP BY columns)?
                   (HAVING predicate)? (ORDER BY columns)? (LIMIT n)?
    select_list := select_item (',' select_item)*
    select_item := expr (AS? identifier)?
    from_item   := identifier | '(' query ')' (AS? identifier)?
    predicate   := or_pred
    or_pred     := and_pred (OR and_pred)*
    and_pred    := not_pred (AND not_pred)*
    not_pred    := NOT not_pred | base_pred
    base_pred   := '(' predicate ')'
                 | expr BETWEEN expr AND expr
                 | expr IN '(' literal (',' literal)* ')'
                 | expr comparator expr
    expr        := term (('+'|'-') term)*
    term        := factor (('*'|'/') factor)*
    factor      := '-' factor | primary
    primary     := number | string | identifier ('(' (expr | '*') ')')?
                 | '(' expr ')'

Aggregate calls (``sum``, ``count``, ``avg``, ``min``, ``max``, ``var``) are
recognized in the select list; other function names fall back to the scalar
function whitelist.  ``count(*)`` is supported.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple, Union

from .aggregates import Aggregate, _SUPPORTED as _AGG_NAMES
from .expressions import BinaryOp, Col, Expression, Func, Lit, UnaryOp
from .predicates import (
    Between,
    Comparison,
    InList,
    Predicate,
    And,
    Or,
    Not,
)
from .query import Projection, Query, QueryError

__all__ = ["parse_query", "SqlError"]


class SqlError(ValueError):
    """Raised for lexical or syntactic errors in SQL text."""


_KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "having",
    "limit",
    "order",
    "by",
    "as",
    "and",
    "or",
    "not",
    "between",
    "in",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\+|-|/|;)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "number" | "string" | "ident" | "keyword" | "op" | "eof"
    text: str
    position: int


def tokenize(sql: str) -> List[Token]:
    """Split SQL text into tokens; raises :class:`SqlError` on bad input."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlError(f"unexpected character {sql[pos]!r} at offset {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        kind = match.lastgroup
        if kind == "ident" and text.lower() in _KEYWORDS:
            kind, text = "keyword", text.lower()
        if kind == "op" and text == ";":
            continue  # trailing semicolons are permitted and ignored
        tokens.append(Token(kind, text, match.start()))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            actual = self._peek()
            wanted = text or kind
            raise SqlError(
                f"expected {wanted!r} at offset {actual.position}, "
                f"got {actual.text!r}"
            )
        return token

    # -- grammar ------------------------------------------------------------

    def parse_query(self) -> Query:
        self._expect("keyword", "select")
        select = self._select_list()
        self._expect("keyword", "from")
        from_item = self._from_item()
        where = None
        if self._accept("keyword", "where"):
            where = self._predicate()
        group_by: Tuple[str, ...] = ()
        having = None
        order_by: Tuple[str, ...] = ()
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by = self._column_list()
        if self._accept("keyword", "having"):
            having = self._predicate()
        if self._accept("keyword", "order"):
            self._expect("keyword", "by")
            order_by = self._column_list()
        limit = None
        if self._accept("keyword", "limit"):
            token = self._expect("number")
            value = _parse_number(token.text)
            if not isinstance(value, int):
                raise SqlError(
                    f"LIMIT must be an integer at offset {token.position}"
                )
            limit = value
        try:
            return Query(
                select=tuple(select),
                from_item=from_item,
                where=where,
                group_by=group_by,
                having=having,
                order_by=order_by,
                limit=limit,
            )
        except QueryError as exc:
            raise SqlError(str(exc)) from exc

    def _select_list(self) -> List[Union[Projection, Aggregate]]:
        items = [self._select_item(0)]
        index = 1
        while self._accept("op", ","):
            items.append(self._select_item(index))
            index += 1
        return items

    def _select_item(self, index: int) -> Union[Projection, Aggregate]:
        item = self._expr_or_aggregate()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        elif self._check("ident"):
            alias = self._advance().text
        if isinstance(item, Aggregate):
            return Aggregate(item.func, item.expr, alias or item.alias)
        expr = item
        if alias is None:
            alias = expr.name if isinstance(expr, Col) else f"expr_{index}"
        return Projection(expr, alias)

    def _expr_or_aggregate(self) -> Union[Expression, Aggregate]:
        # Detect a top-level aggregate call: agg_name '(' ...
        token = self._peek()
        if (
            token.kind == "ident"
            and token.text.lower() in _AGG_NAMES
            and self._tokens[self._pos + 1].kind == "op"
            and self._tokens[self._pos + 1].text == "("
        ):
            func = self._advance().text.lower()
            self._expect("op", "(")
            if self._accept("op", "*"):
                if func != "count":
                    raise SqlError(f"'*' argument only allowed for count, not {func}")
                self._expect("op", ")")
                return Aggregate.count_star()
            inner = self._expr()
            self._expect("op", ")")
            default_alias = func
            return Aggregate(func, inner, default_alias)
        return self._expr()

    def _from_item(self) -> Union[str, Query]:
        if self._accept("op", "("):
            sub = self.parse_query()
            self._expect("op", ")")
            if self._accept("keyword", "as"):
                self._expect("ident")
            elif self._check("ident"):
                self._advance()
            return sub
        return self._expect("ident").text

    def _column_list(self) -> Tuple[str, ...]:
        names = [self._expect("ident").text]
        while self._accept("op", ","):
            names.append(self._expect("ident").text)
        return tuple(names)

    # predicates ------------------------------------------------------------

    def _predicate(self) -> Predicate:
        return self._or_pred()

    def _or_pred(self) -> Predicate:
        left = self._and_pred()
        while self._accept("keyword", "or"):
            left = Or(left, self._and_pred())
        return left

    def _and_pred(self) -> Predicate:
        left = self._not_pred()
        while self._accept("keyword", "and"):
            left = And(left, self._not_pred())
        return left

    def _not_pred(self) -> Predicate:
        if self._accept("keyword", "not"):
            return Not(self._not_pred())
        return self._base_pred()

    def _base_pred(self) -> Predicate:
        # '(' could open either a nested predicate or a parenthesized
        # expression; try predicate first and fall back.
        if self._check("op", "("):
            saved = self._pos
            self._advance()
            try:
                inner = self._predicate()
                self._expect("op", ")")
                return inner
            except SqlError:
                self._pos = saved
        expr = self._expr()
        if self._accept("keyword", "between"):
            low = self._expr()
            self._expect("keyword", "and")
            high = self._expr()
            return Between(expr, low, high)
        if self._accept("keyword", "in"):
            self._expect("op", "(")
            values = [self._literal()]
            while self._accept("op", ","):
                values.append(self._literal())
            self._expect("op", ")")
            return InList(expr, tuple(values))
        op_token = self._peek()
        if op_token.kind == "op" and op_token.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            op = "!=" if op_token.text == "<>" else op_token.text
            return Comparison(op, expr, self._expr())
        raise SqlError(
            f"expected comparison operator at offset {op_token.position}, "
            f"got {op_token.text!r}"
        )

    def _literal(self) -> Union[int, float, str]:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return _parse_number(token.text)
        if token.kind == "string":
            self._advance()
            return _unquote(token.text)
        raise SqlError(f"expected literal at offset {token.position}")

    # expressions -----------------------------------------------------------

    def _expr(self) -> Expression:
        left = self._term()
        while True:
            if self._accept("op", "+"):
                left = BinaryOp("+", left, self._term())
            elif self._accept("op", "-"):
                left = BinaryOp("-", left, self._term())
            else:
                return left

    def _term(self) -> Expression:
        left = self._factor()
        while True:
            if self._accept("op", "*"):
                left = BinaryOp("*", left, self._factor())
            elif self._accept("op", "/"):
                left = BinaryOp("/", left, self._factor())
            else:
                return left

    def _factor(self) -> Expression:
        if self._accept("op", "-"):
            return UnaryOp("-", self._factor())
        return self._primary()

    def _primary(self) -> Expression:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return Lit(_parse_number(token.text))
        if token.kind == "string":
            self._advance()
            return Lit(_unquote(token.text))
        if token.kind == "ident":
            self._advance()
            if self._accept("op", "("):
                name = token.text.lower()
                inner = self._expr()
                self._expect("op", ")")
                try:
                    return Func(name, inner)
                except ValueError as exc:
                    raise SqlError(str(exc)) from exc
            return Col(token.text)
        if self._accept("op", "("):
            inner = self._expr()
            self._expect("op", ")")
            return inner
        raise SqlError(
            f"unexpected token {token.text!r} at offset {token.position}"
        )


def _parse_number(text: str) -> Union[int, float]:
    if re.fullmatch(r"\d+", text):
        return int(text)
    return float(text)


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


def parse_query(sql: str) -> Query:
    """Parse SQL text into a logical :class:`~repro.engine.query.Query`."""
    parser = _Parser(tokenize(sql))
    query = parser.parse_query()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise SqlError(
            f"trailing input at offset {trailing.position}: {trailing.text!r}"
        )
    return query
