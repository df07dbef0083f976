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

from dataclasses import dataclass, fields, replace
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .aggregates import Aggregate
from .expressions import Col, Expression
from .predicates import Predicate
from .schema import Column, Schema
from .table import Table

__all__ = ["Presentation", "Projection", "Query", "QueryError"]


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

    def bind(self) -> Tuple["Query", Optional["Presentation"]]:
        """The stage query every stage runs, and how to present its result.

        The stage query is this select list in this order, except that
        each selected ``GROUP BY`` column is renamed to its base name, each
        unselected one is appended under its base name, and an aggregate
        alias equal to a ``GROUP BY`` column name gets a reserved name
        (HAVING and ORDER BY follow the renames).  So every stage finds
        a group key by its name in ``group_by``.  A query that needs
        none of this is its own stage query, returned with no
        presentation (``None``): its results are already in its columns.
        """
        group = set(self.group_by)
        stage_name: Dict[str, str] = {}
        select: List[Union[Projection, Aggregate]] = []
        for item in self.select:
            name = item.alias
            if (
                isinstance(item, Projection)
                and isinstance(item.expr, Col)
                and item.expr.name in group
            ):
                name = item.expr.name
                group.discard(name)
            elif name in self.group_by:
                taken = {
                    *self.group_by,
                    *self.output_aliases(),
                    *stage_name.values(),
                }
                while name in taken:
                    name += "_"
            if name != item.alias:
                stage_name[item.alias] = name
                item = replace(item, alias=name)
            select.append(item)
        added = tuple(
            Projection(Col(name), name) for name in self.group_by
            if name in group
        )
        if not stage_name and not added:
            return self, None
        stage = replace(
            self,
            select=tuple(select) + added,
            having=_renamed(self.having, stage_name),
            order_by=tuple(stage_name.get(n, n) for n in self.order_by),
        )
        return stage, Presentation(self, len(stage.select))

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


class Presentation(NamedTuple):
    """Lays a stage-layout result (:meth:`Query.bind`) out in ``query``'s
    columns.

    A stage-layout result holds the stage select list (``width`` items:
    ``query``'s, then any appended group keys), each aggregate's
    ``<alias>_error`` companion where it has one, then anything else (a
    provenance column).  Matching is by position, so a result computed
    for any spelling of the same select-list shape presents correctly; a
    result whose names already match is returned as it is.
    """

    query: Query
    width: int

    def __call__(self, result: Table) -> Table:
        names = result.schema.names
        pairs = list(zip(names, self.query.output_aliases()))
        pairs += [
            (f"{name}_error", f"{item.alias}_error")
            for name, item in zip(names, self.query.select)
            if isinstance(item, Aggregate) and f"{name}_error" in result.schema
        ]
        paired = {source for source, __ in pairs}
        pairs += [(n, n) for n in names[self.width :] if n not in paired]
        if pairs == list(zip(names, names)):
            return result
        columns = {c.name: c for c in result.schema}
        schema = Schema(
            Column(target, columns[source].ctype, columns[source].role)
            for source, target in pairs
        )
        return Table(schema, {t: result.column(s) for s, t in pairs})


def _renamed(node, names: Dict[str, str]):
    """``node`` (a predicate or expression) with each column reference
    renamed per ``names``."""
    if isinstance(node, Col):
        return Col(names.get(node.name, node.name))
    if not isinstance(node, (Expression, Predicate)):
        return node
    return replace(
        node,
        **{
            f.name: _renamed(getattr(node, f.name), names)
            for f in fields(node)
        },
    )
