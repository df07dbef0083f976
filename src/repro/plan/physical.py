"""Physical plan execution: bind a logical tree to the engine.

One recursive evaluator maps each logical operator to the engine machinery
that already existed before the plan IR: :class:`Scan` reads the catalog,
:class:`GroupBy` runs the serial :func:`~repro.engine.groupby.group_by` or
the :class:`~repro.engine.executor.ParallelExecutor`'s partitioned
partial/merge/finalize scan, :class:`Join` calls
:func:`~repro.engine.join.hash_join`, and :class:`ScaleUp` reproduces the
rewrite layer's ratio arithmetic.  Serial, parallel, and cached execution
therefore run the *same operator tree* -- the parallel path differs only
inside the GroupBy node, whose merged output is group-for-group identical
to the serial one.

Every operator runs under an ``op_<kind>`` tracer span carrying its tree
path and output row count; passing ``collect`` additionally records
``path -> (rows, inclusive seconds)``, which is what ``explain(analyze=True)``
joins back onto the rendered tree.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.catalog import Catalog
from ..engine.executor import ParallelExecutor, infer_expression_type
from ..engine.groupby import group_by
from ..engine.join import hash_join
from ..engine.schema import Column, ColumnType, Schema
from ..engine.table import Table
from ..obs.trace import NULL_TRACER
from ..serve.deadline import check_deadline
from .logical import (
    Filter,
    GroupBy,
    Join,
    Limit,
    Plan,
    PlanError,
    Project,
    ScaleUp,
    Scan,
    Sort,
)

__all__ = ["execute_plan"]

Actuals = Dict[Tuple[int, ...], Tuple[int, float]]


def execute_plan(
    plan: Plan,
    catalog: Catalog,
    parallel: Optional[ParallelExecutor] = None,
    tracer=None,
    collect: Optional[Actuals] = None,
) -> Table:
    """Execute a logical plan against ``catalog`` and return the answer.

    Args:
        plan: the (optimized) logical tree.
        catalog: relation store resolving :class:`Scan` names.
        parallel: optional partitioned executor; eligible GroupBy nodes
            (input large enough to split) run partial/merge/finalize on its
            worker pool, everything else stays serial.
        tracer: optional :class:`~repro.obs.Tracer`; each operator gets an
            ``op_<kind>`` span nested to match the tree.
        collect: optional dict filled with ``path -> (rows, seconds)`` per
            operator (seconds are inclusive of children, the EXPLAIN
            ANALYZE convention).
    """
    if tracer is None:
        tracer = NULL_TRACER
    return _exec(plan, (), catalog, parallel, tracer, collect)


def _exec(
    node: Plan,
    path: Tuple[int, ...],
    catalog: Catalog,
    parallel: Optional[ParallelExecutor],
    tracer,
    collect: Optional[Actuals],
) -> Table:
    # Cooperative cancellation: a query whose deadline expired aborts
    # before materializing the next operator, tagged with where it died.
    check_deadline(f"op_{node.kind}")
    start = perf_counter()
    with tracer.span(f"op_{node.kind}", depth=len(path)) as span:
        inputs = [
            _exec(child, path + (i,), catalog, parallel, tracer, collect)
            for i, child in enumerate(node.children)
        ]
        result = _run_node(node, inputs, catalog, parallel, span)
        span.set(rows=result.num_rows)
    if collect is not None:
        collect[path] = (result.num_rows, perf_counter() - start)
    return result


def _run_node(
    node: Plan,
    inputs,
    catalog: Catalog,
    parallel: Optional[ParallelExecutor],
    span,
) -> Table:
    if isinstance(node, Scan):
        span.set(table=node.table)
        table = catalog.get(node.table)
        if node.columns is not None:
            table = table.project(list(node.columns))
        if node.predicate is not None:
            table = table.filter(node.predicate.evaluate(table))
        return table
    if isinstance(node, Filter):
        (table,) = inputs
        return table.filter(node.predicate.evaluate(table))
    if isinstance(node, Project):
        (table,) = inputs
        return _project(node, table)
    if isinstance(node, Join):
        left, right = inputs
        return hash_join(
            left, right, list(node.left_on), list(node.right_on), node.suffix
        )
    if isinstance(node, GroupBy):
        (table,) = inputs
        return _group(node, table, parallel, span)
    if isinstance(node, ScaleUp):
        (table,) = inputs
        return _scale_up(node, table)
    if isinstance(node, Sort):
        (table,) = inputs
        return table.sort_by(list(node.keys))
    if isinstance(node, Limit):
        (table,) = inputs
        return table.head(node.count)
    raise PlanError(f"no physical operator for {type(node).__name__}")


def _project(node: Project, table: Table) -> Table:
    if node.mode == "view":
        # Zero-copy reorder + rename, preserving schema roles -- the exact
        # select-list shaping the serial executor applies after group_by().
        names = [item.expr.name for item in node.items]
        renames = {
            item.expr.name: item.alias
            for item in node.items
            if item.alias != item.expr.name
        }
        result = table.project(names)
        return result.rename(renames) if renames else result
    columns = {}
    schema_cols = []
    for item in node.items:
        values = item.expr.evaluate(table)
        ctype = infer_expression_type(values, item.expr, table)
        schema_cols.append(Column(item.alias, ctype))
        columns[item.alias] = ctype.coerce(values)
    return Table(Schema(schema_cols), columns)


def _group(
    node: GroupBy,
    table: Table,
    parallel: Optional[ParallelExecutor],
    span,
) -> Table:
    aggregates = list(node.aggregates)
    if (
        parallel is not None
        and parallel.partition_count(table.num_rows) >= 2
    ):
        span.set(mode="parallel")
        return parallel.aggregate_table(table, list(node.keys), aggregates)
    if parallel is not None:
        parallel.note_serial_fallback()
    return group_by(table, list(node.keys), aggregates)


def _scale_up(node: ScaleUp, table: Table) -> Table:
    if not node.ratios:
        return table.project(list(node.output))
    columns = dict(table.columns())
    schema_cols = {c.name: c for c in table.schema}
    for ratio in node.ratios:
        num = np.asarray(columns[ratio.numerator], dtype=np.float64)
        den = np.asarray(columns[ratio.denominator], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(den != 0, num / den, np.nan)
        columns[ratio.alias] = values
        schema_cols[ratio.alias] = Column(ratio.alias, ColumnType.FLOAT)
    schema = Schema([schema_cols[name] for name in node.output])
    return Table(schema, {name: columns[name] for name in node.output})
