"""Scalar expression AST with vectorized numpy evaluation.

Expressions evaluate against a :class:`~repro.engine.table.Table` and return a
numpy array of one value per row.  This is the machinery behind rewritten
query select-lists such as ``sum(Q * SF)`` (Section 5 of the paper): the
``Q * SF`` part is a :class:`BinaryOp` expression evaluated per tuple before
aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

import numpy as np

from .table import Table

__all__ = ["Expression", "Col", "Lit", "BinaryOp", "UnaryOp", "Func", "col", "lit"]


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Return one value per row of ``table``."""
        raise NotImplementedError

    def referenced_columns(self) -> Tuple[str, ...]:
        """Column names this expression reads, in first-use order."""
        raise NotImplementedError

    # Operator sugar so callers can write ``col("q") * col("sf")``.
    def __add__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("+", self, _wrap(other))

    def __radd__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("+", _wrap(other), self)

    def __sub__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("-", self, _wrap(other))

    def __rsub__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("-", _wrap(other), self)

    def __mul__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("*", self, _wrap(other))

    def __rmul__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("*", _wrap(other), self)

    def __truediv__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("/", self, _wrap(other))

    def __rtruediv__(self, other: "ExpressionLike") -> "BinaryOp":
        return BinaryOp("/", _wrap(other), self)

    def __neg__(self) -> "UnaryOp":
        return UnaryOp("-", self)


ExpressionLike = Union[Expression, int, float, str]


def _wrap(value: ExpressionLike) -> Expression:
    if isinstance(value, Expression):
        return value
    return Lit(value)


@dataclass(frozen=True)
class Col(Expression):
    """A reference to a named column."""

    name: str

    def evaluate(self, table: Table) -> np.ndarray:
        return table.column(self.name)

    def referenced_columns(self) -> Tuple[str, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return f"Col({self.name})"


@dataclass(frozen=True)
class Lit(Expression):
    """A literal constant broadcast to every row."""

    value: Union[int, float, str]

    def evaluate(self, table: Table) -> np.ndarray:
        return np.full(table.num_rows, self.value)

    def referenced_columns(self) -> Tuple[str, ...]:
        return ()

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


def operand(expr: Expression, table: Table) -> np.ndarray:
    """``expr`` over ``table``; a literal as one 0-d value of the dtype its
    full column would have, which computes and compares the same without
    the copy."""
    if isinstance(expr, Lit):
        return np.asarray(expr.value)
    return expr.evaluate(table)


def per_row(values: np.ndarray, table: Table) -> np.ndarray:
    """``values`` with one entry per row, also when only literals met."""
    return values if values.ndim else np.full(table.num_rows, values)


def merge_columns(*groups: Tuple[str, ...]) -> Tuple[str, ...]:
    """The column names in ``groups``, each once, in first-use order."""
    return tuple(dict.fromkeys(name for group in groups for name in group))


_BINARY_OPS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic on two sub-expressions: ``+``, ``-``, ``*``, ``/``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unsupported binary operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        lhs = operand(self.left, table)
        rhs = operand(self.right, table)
        if self.op == "/":
            lhs = np.asarray(lhs, dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                return per_row(np.divide(lhs, rhs), table)
        return per_row(_BINARY_OPS[self.op](lhs, rhs), table)

    def referenced_columns(self) -> Tuple[str, ...]:
        return merge_columns(
            self.left.referenced_columns(), self.right.referenced_columns()
        )

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary negation."""

    op: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.op != "-":
            raise ValueError(f"unsupported unary operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        return -self.operand.evaluate(table)

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.operand.referenced_columns()


def _date_func(values: np.ndarray) -> np.ndarray:
    from .dates import date_function

    return date_function(values)


_FUNCS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "floor": np.floor,
    "ceil": np.ceil,
    "date": _date_func,
}


@dataclass(frozen=True)
class Func(Expression):
    """A whitelisted scalar function applied elementwise."""

    name: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.name not in _FUNCS:
            raise ValueError(
                f"unsupported function {self.name!r}; have {sorted(_FUNCS)}"
            )

    def evaluate(self, table: Table) -> np.ndarray:
        return _FUNCS[self.name](self.operand.evaluate(table))

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.operand.referenced_columns()


def col(name: str) -> Col:
    """Shorthand constructor: ``col("l_quantity")``."""
    return Col(name)


def lit(value: Union[int, float, str]) -> Lit:
    """Shorthand constructor: ``lit(100)``."""
    return Lit(value)
