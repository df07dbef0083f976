"""Logical query representation.

A :class:`Query` is the engine's logical plan: a select list of plain
projections and aggregates, a FROM item (base table name or nested subquery),
an optional WHERE predicate, and GROUP BY / ORDER BY column lists.  Queries
are produced either programmatically or by the SQL parser
(:mod:`repro.engine.sql`) and executed by :mod:`repro.engine.executor`.

The *Nested-integrated* rewriting strategy (Figure 11 of the paper) relies on
nested FROM subqueries, which is why ``from_item`` may itself be a query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from .aggregates import Aggregate
from .expressions import Col, Expression
from .predicates import Predicate

__all__ = ["Projection", "Query", "QueryError"]


class QueryError(ValueError):
    """Raised for malformed logical queries."""


@dataclass(frozen=True)
class Projection:
    """A non-aggregate select item: ``expr AS alias``."""

    expr: Expression
    alias: str


@dataclass(frozen=True)
class Query:
    """A logical SELECT query.

    Attributes:
        select: select-list items in output order.
        from_item: base table name, or a nested :class:`Query`.
        where: optional row predicate.
        group_by: grouping column names (empty = no GROUP BY).
        having: optional predicate over the *output aliases* (keys and
            aggregate results), applied after aggregation -- SQL HAVING.
        order_by: output ordering column names (empty = unspecified);
            a base column selected under an alias may be named by either,
            and is stored as the alias.
        limit: optional cap on the number of output rows (SQL LIMIT).
    """

    select: Tuple[Union[Projection, Aggregate], ...]
    from_item: Union[str, "Query"]
    where: Optional[Predicate] = None
    group_by: Tuple[str, ...] = ()
    having: Optional[Predicate] = None
    order_by: Tuple[str, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.select:
            raise QueryError("select list must not be empty")
        aliases = [item.alias for item in self.select]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate output aliases: {aliases}")
        if self.having is not None and not (
            self.has_aggregates() or self.group_by
        ):
            raise QueryError("HAVING requires aggregation or GROUP BY")
        if self.limit is not None and self.limit < 0:
            raise QueryError(f"LIMIT must be >= 0, got {self.limit}")
        if self.has_aggregates():
            for item in self.projections():
                if not isinstance(item.expr, Col):
                    raise QueryError(
                        "non-aggregate select items must be bare columns when "
                        f"aggregating; got {item.expr!r}"
                    )
                if item.expr.name not in self.group_by:
                    raise QueryError(
                        f"column {item.expr.name!r} in select list is not in "
                        f"GROUP BY {list(self.group_by)}"
                    )
        if self.order_by:
            object.__setattr__(self, "order_by", self._output_order_by())

    def _output_order_by(self) -> Tuple[str, ...]:
        """ORDER BY as output columns: an output name stands, and a base
        column selected under an alias becomes that alias."""
        outputs = set(self.output_aliases())
        alias_of = self._alias_of()
        resolved = []
        for name in self.order_by:
            if name in outputs:
                resolved.append(name)
            elif name in alias_of:
                resolved.append(alias_of[name])
            else:
                raise QueryError(
                    f"ORDER BY {name!r} is not an output column "
                    f"{self.output_aliases()} nor a selected base column"
                )
        return tuple(resolved)

    def _alias_of(self) -> Dict[str, str]:
        """The output name of each base column selected bare."""
        return {
            item.expr.name: item.alias
            for item in self.projections()
            if isinstance(item.expr, Col)
        }

    # -- introspection -----------------------------------------------------

    def projections(self) -> List[Projection]:
        return [item for item in self.select if isinstance(item, Projection)]

    def aggregates(self) -> List[Aggregate]:
        return [item for item in self.select if isinstance(item, Aggregate)]

    def has_aggregates(self) -> bool:
        return any(isinstance(item, Aggregate) for item in self.select)

    def output_aliases(self) -> List[str]:
        return [item.alias for item in self.select]

    def group_by_aliases(self) -> List[str]:
        """The output column each ``GROUP BY`` column is selected under
        (its own name when the select list leaves it out)."""
        alias_of = self._alias_of()
        return [alias_of.get(name, name) for name in self.group_by]

    def base_table_name(self) -> str:
        """The name of the innermost base table."""
        item = self.from_item
        while isinstance(item, Query):
            item = item.from_item
        return item

    # -- transformation helpers (used by the rewriter) ----------------------

    def with_from(self, from_item: Union[str, "Query"]) -> "Query":
        return replace(self, from_item=from_item)

    def with_select(
        self, select: Tuple[Union[Projection, Aggregate], ...]
    ) -> "Query":
        return replace(self, select=select)

    def with_group_by(self, group_by: Tuple[str, ...]) -> "Query":
        return replace(self, group_by=group_by)
