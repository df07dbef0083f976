"""Canonical forms and fingerprints for plans and queries.

Semantically equivalent queries should share cache entries.  The answer
cache, plan cache, and streaming cache used to key on rendered SQL text,
so ``WHERE a = 1 AND b = 2`` and ``WHERE b = 2 AND a = 1`` compiled and
cached twice.  This module provides pure canonicalization:

* :func:`canonicalize_predicate` -- fold constants, flatten and sort
  AND/OR chains, sort IN lists, and orient comparisons column-first.
  Boolean masks over a table are evaluated fully (no short-circuiting),
  so reordering commutative operands never changes the result.
* :func:`canonicalize` -- canonicalize every predicate inside a logical
  plan and hash the result into a stable fingerprint.  Runs after
  lowering (and again after ``optimize``), so the system's plan cache
  keys on ``(table, version, strategy, fingerprint)`` instead of text.
* :func:`canonicalize_query` -- query-level canonical form with two
  fingerprints: a *semantic* one that is alias-insensitive and ignores
  GROUP BY column order where no ORDER BY or LIMIT depends on it (the
  answer cache reconciles aliases and row order on a hit), and a
  *structural* one that keeps aliases and group
  order (used where the cached value bakes in the output schema, e.g.
  streaming answers).

Deliberate asymmetry: plan fingerprints stay alias-*sensitive* because
a compiled plan's Project/GroupBy nodes bake output column names into
the physical schema; renaming columns inside a cached plan could
collide with base-table names.  Alias insensitivity therefore lives
only in the answer-cache fingerprint, where a hit is presented in the
probe's columns (see :class:`repro.engine.query.Presentation`).

Everything here is deterministic and pure: same input object graph,
same fingerprint, across processes and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import reduce
from typing import Dict, List, Optional, Tuple, Union

from ..engine.aggregates import Aggregate
from ..engine.expressions import Expression, Lit
from ..engine.predicates import (
    And,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from ..engine.query import Projection, Query
from ..engine.render import render_expression, render_predicate
from .logical import Filter, Plan, Scan
from .optimizer import (
    _conjoin,
    _fold_expression,
    _fold_predicate,
    _split_and,
    fold_constants,
    transform,
)

__all__ = [
    "CanonicalQuery",
    "canonicalize",
    "canonicalize_expression",
    "canonicalize_predicate",
    "canonicalize_query",
    "predicate_conjuncts",
    "predicate_fingerprint",
    "split_conjuncts",
]

# Mirror table for orienting ``literal <op> column`` comparisons
# column-first: the comparator flips, the operands swap.
_MIRRORED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def canonicalize_expression(expr: Expression) -> Expression:
    """Fold constant sub-expressions (``1 + 2`` -> ``3``)."""
    return _fold_expression(expr)


def _split_or(predicate: Predicate) -> List[Predicate]:
    if isinstance(predicate, Or):
        return _split_or(predicate.left) + _split_or(predicate.right)
    return [predicate]


def _sorted_unique(parts: List[Predicate]) -> List[Predicate]:
    seen = set()
    unique = []
    for part in parts:
        if part not in seen:
            seen.add(part)
            unique.append(part)
    unique.sort(key=render_predicate)
    return unique


def _normalize(predicate: Predicate) -> Predicate:
    if isinstance(predicate, And):
        parts: List[Predicate] = []
        for part in _split_and(predicate):
            parts.extend(_split_and(_normalize(part)))
        return _conjoin(_sorted_unique(parts))
    if isinstance(predicate, Or):
        parts = []
        for part in _split_or(predicate):
            parts.extend(_split_or(_normalize(part)))
        return reduce(Or, _sorted_unique(parts))
    if isinstance(predicate, Not):
        return Not(_normalize(predicate.operand))
    if isinstance(predicate, Comparison):
        if isinstance(predicate.left, Lit) and not isinstance(
            predicate.right, Lit
        ):
            return Comparison(
                _MIRRORED_OPS[predicate.op], predicate.right, predicate.left
            )
        return predicate
    if isinstance(predicate, InList):
        ordered = sorted(
            set(predicate.values), key=lambda v: (type(v).__name__, repr(v))
        )
        return InList(predicate.expr, tuple(ordered))
    return predicate


def canonicalize_predicate(predicate: Predicate) -> Predicate:
    """Canonical form of a predicate: folded, flattened, sorted.

    Idempotent, and evaluation-equivalent to the input on every table
    (predicates evaluate to full boolean masks; AND/OR are commutative
    and associative over masks, and duplicate conjuncts are absorbing).
    """
    return _normalize(_fold_predicate(predicate))


def split_conjuncts(
    canonical: Optional[Predicate],
) -> Tuple[Tuple[Predicate, str], ...]:
    """The conjuncts of an already canonical predicate, each with its
    rendered text, in canonical order (none for ``None`` or
    ``TruePredicate``)."""
    if canonical is None or isinstance(canonical, TruePredicate):
        return ()
    return tuple((part, render_predicate(part)) for part in _split_and(canonical))


def predicate_conjuncts(predicate: Optional[Predicate]) -> Tuple[str, ...]:
    """The canonical conjunct set of ``predicate`` as sorted rendered text.

    ``None`` (no WHERE clause) and ``TruePredicate`` both canonicalize to
    the empty conjunct set.  The roll-up subsumption check compares these
    sets: an entry whose conjuncts are a subset of the probe's covers a
    superset of the probe's rows.
    """
    if predicate is None:
        return ()
    parts = split_conjuncts(canonicalize_predicate(predicate))
    return tuple(text for _, text in parts)


def predicate_fingerprint(predicate: Optional[Predicate]) -> str:
    """Stable digest of a predicate's canonical form ('' for no WHERE)."""
    conjuncts = predicate_conjuncts(predicate)
    if not conjuncts:
        return ""
    return _digest("\x1f".join(conjuncts))


# -- plan-level canonicalization ------------------------------------------


def canonicalize(plan: Plan) -> Tuple[Plan, str]:
    """Canonicalize a logical plan and fingerprint it.

    Folds constants (dropping always-true filters) and rewrites every
    Filter/Scan predicate into canonical form.  GroupBy keys and Project
    items are *not* reordered -- their order determines output row and
    column order, which is execution semantics, not spelling.

    Returns ``(canonical_plan, fingerprint)``.  Idempotent: running it on
    its own output returns an equal plan and the same fingerprint.
    """

    def fn(node: Plan) -> Plan:
        if isinstance(node, Filter):
            return replace(
                node, predicate=canonicalize_predicate(node.predicate)
            )
        if isinstance(node, Scan) and node.predicate is not None:
            return replace(
                node, predicate=canonicalize_predicate(node.predicate)
            )
        return node

    canonical = transform(fold_constants(plan), fn)
    return canonical, _digest(repr(canonical))


# -- query-level canonicalization -----------------------------------------


@dataclass(frozen=True)
class CanonicalQuery:
    """Canonical form of a :class:`~repro.engine.query.Query`.

    Attributes:
        query: the query with canonical predicates and folded select
            expressions.  Select order, aliases, GROUP BY order, and
            ORDER BY are preserved -- they affect output shape.
        fingerprint: alias-insensitive semantic digest.  Two queries that
            differ only in output aliases, predicate spelling, or -- with
            neither ORDER BY nor LIMIT -- GROUP BY column order share it.
            Used by the answer cache, which reconciles aliases/row order
            on a hit.
    """

    query: Query
    fingerprint: str

    @property
    def structural(self) -> str:
        """Alias-sensitive digest preserving GROUP BY order, worked out
        on demand: only the streaming cache, whose cached table bakes in
        the output schema, keys on it."""
        return _digest(_fingerprint_text(self.query, True))


def _canonical_select(
    select: Tuple[Union[Projection, Aggregate], ...]
) -> Tuple[Union[Projection, Aggregate], ...]:
    items: List[Union[Projection, Aggregate]] = []
    for item in select:
        if isinstance(item, Aggregate):
            items.append(
                Aggregate(item.func, _fold_expression(item.expr), item.alias)
            )
        else:
            items.append(Projection(_fold_expression(item.expr), item.alias))
    return tuple(items)


def canonicalize_query(query: Query) -> CanonicalQuery:
    """Canonicalize a query and compute its semantic fingerprint."""
    where = (
        canonicalize_predicate(query.where)
        if query.where is not None
        else None
    )
    if isinstance(where, TruePredicate):
        where = None
    having = (
        canonicalize_predicate(query.having)
        if query.having is not None
        else None
    )
    from_item = query.from_item
    if isinstance(from_item, Query):
        from_item = canonicalize_query(from_item).query
    canonical = replace(
        query,
        select=_canonical_select(query.select),
        from_item=from_item,
        where=where,
        having=having,
    )
    return CanonicalQuery(
        query=canonical,
        fingerprint=_digest(_fingerprint_text(canonical, False)),
    )


def _fingerprint_text(query: Query, alias_sensitive: bool) -> str:
    # HAVING references output aliases and grouping columns through one
    # namespace, which makes positional alias substitution ambiguous --
    # fall back to the alias-sensitive spelling for those queries (they
    # simply get fewer semantic cache hits).
    if query.having is not None:
        alias_sensitive = True
    placeholders: Dict[str, str] = {}
    if not alias_sensitive:
        placeholders = {
            item.alias: f"${position}"
            for position, item in enumerate(query.select)
        }
    select_parts = []
    for position, item in enumerate(query.select):
        name = item.alias if alias_sensitive else f"${position}"
        if isinstance(item, Aggregate):
            select_parts.append(
                f"{item.func}({render_expression(item.expr)})->{name}"
            )
        else:
            select_parts.append(f"{render_expression(item.expr)}->{name}")
    if isinstance(query.from_item, Query):
        # A subquery's aliases are the outer query's column namespace:
        # renaming them changes outer semantics, so keep them.
        source = "(" + _fingerprint_text(query.from_item, True) + ")"
    else:
        source = query.from_item
    # Rows are served in GROUP BY order, which a hit re-sorts to the
    # probe's -- unless ORDER BY (its ties) or LIMIT (which rows) already
    # depends on it.
    reorderable = not query.order_by and query.limit is None
    group = (
        sorted(query.group_by)
        if reorderable and not alias_sensitive
        else query.group_by
    )
    parts = [
        "from=" + source,
        "select=" + "; ".join(select_parts),
        "where="
        + (render_predicate(query.where) if query.where is not None else ""),
        "group=" + ",".join(group),
        "having="
        + (
            render_predicate(query.having)
            if query.having is not None
            else ""
        ),
        "order="
        + ",".join(placeholders.get(name, name) for name in query.order_by),
        "limit=" + str(query.limit),
    ]
    return "\n".join(parts)
