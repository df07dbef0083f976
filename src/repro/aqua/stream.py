"""Progressive streaming answers: online aggregation over chunked scans.

:func:`stream_answers` is the driver behind
:meth:`~repro.aqua.system.AquaSystem.sql_stream`.  It lowers the query
through the same plan IR as the batch paths (so predicate pushdown and
projection pruning apply to streamed scans too), permutes the base
relation once, and folds fixed-size chunks of the permutation through
:func:`~repro.engine.stream.stream_group_partials`, yielding one
:class:`StreamingAnswer` per chunk with per-group estimates and shrinking
confidence-interval half-widths.

The emission contract (see ``docs/STREAMING.md``):

* every intermediate answer has ``provenance="stream"`` and half-widths
  from the system's bound family at its confidence level;
* the terminal answer of a run-to-completion stream is computed through
  the *batch* plan executor over the full relation -- the "exact landing"
  -- so it is bit-identical to :meth:`AquaSystem.exact` (chunk-merged
  float sums differ from whole-table sums in ULPs; re-running the batch
  plan once the prefix is the whole table removes that gap honestly) and
  carries ``provenance="exact"``, ``final=True``, zero half-widths;
* a deadline expiring mid-stream re-emits the last complete answer with
  ``provenance="partial"`` instead of raising mid-merge;
* when ``until_rel_error`` is met the stream stops early with
  ``converged=True``;
* only a run-to-completion final answer is stored in the
  :class:`~repro.aqua.cache.AnswerCache` (early-stopped and interrupted
  streams never pollute it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..engine.aggregates import Aggregate, finalize_state, grouped_reduce
from ..engine.expressions import Lit
from ..engine.groupby import GroupByPartial, group_ids_for
from ..engine.query import Query
from ..engine.schema import Column, ColumnType, Schema
from ..engine.sql import parse_query
from ..engine.stream import (
    BOUNDED_AGGREGATES,
    StreamChunk,
    chunk_bounds,
    expansion_estimate,
    expansion_variance,
    stream_group_partials,
    stream_halfwidth,
)
from ..engine.table import Table
from ..errors import DeadlineExceeded, StreamError
from ..estimators.errors import relative_halfwidth
from ..plan import canonicalize_query, execute_plan, lower_query
from ..plan.logical import Filter, GroupBy, Scan, walk
from ..serve.deadline import Deadline, current_deadline, deadline_scope

__all__ = [
    "PROVENANCE_STREAM",
    "PROVENANCE_PARTIAL",
    "PROVENANCE_FINAL",
    "StreamingAnswer",
    "stream_answers",
]

#: Provenance tags a :class:`StreamingAnswer` can carry.
PROVENANCE_STREAM = "stream"  # intermediate estimate from a prefix
PROVENANCE_PARTIAL = "partial"  # last complete answer, deadline expired
PROVENANCE_FINAL = "exact"  # ran to completion; bit-identical to exact()

DEFAULT_CHUNK_ROWS = 1024


@dataclass
class StreamingAnswer:
    """One emission of a progressive stream.

    Attributes:
        result: per-group estimates in the query's select-list shape, with
            an ``<alias>_error`` half-width column per SUM/COUNT/AVG
            aggregate (zero on the final exact emission).
        chunk_index: 0-based index of the chunk that produced this answer.
        chunks_total: chunks the full stream would take.
        rows_seen: permuted prefix rows consumed (pre-WHERE).
        rows_total: base relation rows.
        support: qualifying rows seen per group key tuple -- non-
            decreasing across emissions.
        provenance: ``"stream"`` / ``"partial"`` / ``"exact"``.
        final: the answer is bit-identical to :meth:`AquaSystem.exact`.
        converged: every group's relative half-width met
            ``until_rel_error`` at this emission.
        max_rel_halfwidth: worst finite relative half-width across groups
            and bounded aggregates (NaN when there is none to report).
        confidence: confidence level of the error columns.
        bound_method: bound family the half-widths came from.
        elapsed_seconds: wall time since the stream started.
        cache_hit: served from the answer cache without streaming.
    """

    result: Table
    chunk_index: int
    chunks_total: int
    rows_seen: int
    rows_total: int
    support: Dict[Tuple, int] = field(default_factory=dict)
    provenance: str = PROVENANCE_STREAM
    final: bool = False
    converged: bool = False
    max_rel_halfwidth: float = float("nan")
    confidence: float = 0.0
    bound_method: str = "chebyshev"
    elapsed_seconds: float = 0.0
    cache_hit: bool = False

    @property
    def fraction(self) -> float:
        """Fraction of the base relation folded into this answer."""
        return self.rows_seen / self.rows_total if self.rows_total else 1.0


@dataclass
class _StreamPlan:
    """The streamable skeleton extracted from an optimized logical plan."""

    scan: Scan
    filters: Tuple[Filter, ...]  # residual filters between scan and group-by
    group_by: GroupBy

    def apply_scan(self, chunk: Table) -> Table:
        """Run the optimized scan stage (pruning + pushdown) on one chunk."""
        if self.scan.columns is not None:
            chunk = chunk.project(list(self.scan.columns))
        if self.scan.predicate is not None:
            chunk = chunk.filter(self.scan.predicate.evaluate(chunk))
        for node in self.filters:
            chunk = chunk.filter(node.predicate.evaluate(chunk))
        return chunk


def _validate_query(query: Query) -> None:
    if isinstance(query.from_item, Query):
        raise StreamError(
            "sql_stream requires a flat aggregate query over a base table; "
            "nested FROM subqueries are not streamable"
        )
    if not query.has_aggregates():
        raise StreamError(
            "sql_stream requires at least one aggregate in the select list"
        )


def _extract_stream_plan(plan, base_name: str) -> _StreamPlan:
    """Find the Scan -> [Filter...] -> GroupBy spine of the optimized plan.

    Everything above the GroupBy (select shaping, HAVING, ORDER BY, LIMIT)
    is re-applied per emission from the query itself, because the streamed
    estimates table carries error columns the plan does not know about.
    """
    group_nodes = [n for __, n in walk(plan) if isinstance(n, GroupBy)]
    if len(group_nodes) != 1:
        raise StreamError(
            f"query lowers to {len(group_nodes)} GroupBy operators; "
            "sql_stream streams exactly one"
        )
    group = group_nodes[0]
    filters: List[Filter] = []
    node = group.child
    while isinstance(node, Filter):
        filters.append(node)
        node = node.child
    if not isinstance(node, Scan) or node.table != base_name:
        raise StreamError(
            "sql_stream requires the aggregation input to be a plain scan "
            f"of {base_name!r}; got a {type(node).__name__} node"
        )
    # Residual filters apply bottom-up (closest to the scan first).
    return _StreamPlan(node, tuple(reversed(filters)), group)


def _moment_aggregates(query: Query) -> List[Aggregate]:
    """The internal aggregates streamed per chunk.

    Bounded aggregates become ``var`` states over the same input so every
    group carries the (n, sum, sum_sq) moment triple; MIN/MAX/VAR stream
    as themselves.  COUNT streams the qualifying-row indicator.
    """
    internal = []
    for agg in query.aggregates():
        if agg.func in BOUNDED_AGGREGATES:
            expr = Lit(1) if agg.func == "count" else agg.expr
            internal.append(Aggregate("var", expr, agg.alias))
        else:
            internal.append(Aggregate(agg.func, agg.expr, agg.alias))
    return internal


def _hoeffding_ranges(
    base: Table, query: Query, aggregate: Aggregate
) -> Dict[Tuple, float]:
    """Zero-extended per-answer-group value ranges from the base relation.

    Mirrors the batch path's precomputed range hints: the WHERE predicate
    zero-extends non-qualifying rows, so ranges include zero.
    """
    if aggregate.func == "count":
        values = np.ones(base.num_rows)
    else:
        values = np.asarray(aggregate.expr.evaluate(base), dtype=np.float64)
    ids, keys, num = group_ids_for(base, list(query.group_by))
    lows = np.minimum(grouped_reduce("min", values, ids, num), 0.0)
    highs = np.maximum(grouped_reduce("max", values, ids, num), 0.0)
    return {key: float(highs[i] - lows[i]) for i, key in enumerate(keys)}


def _shape_emission(
    query: Query,
    base_schema: Schema,
    partial: GroupByPartial,
    estimates: Dict[str, np.ndarray],
    halfwidths: Dict[str, np.ndarray],
) -> Table:
    """Assemble one emission table in the batch answer's column order.

    Select-list items first (keys renamed to their aliases, aggregate
    estimates), then one ``<alias>_error`` column per bounded aggregate --
    the same shape :meth:`AquaSystem.answer` results have, so callers can
    swap a stream in for a batch answer without reshaping.
    """
    columns = {}
    schema_cols = []
    key_index = {name: i for i, name in enumerate(partial.key_columns)}
    for item in query.select:
        if isinstance(item, Aggregate):
            schema_cols.append(Column(item.alias, ColumnType.FLOAT))
            columns[item.alias] = estimates[item.alias]
        else:
            src = base_schema.column(item.expr.name)
            pos = key_index[item.expr.name]
            schema_cols.append(Column(item.alias, src.ctype))
            columns[item.alias] = src.ctype.coerce(
                [key[pos] for key in partial.group_keys]
            )
    for alias, values in halfwidths.items():
        schema_cols.append(Column(f"{alias}_error", ColumnType.FLOAT))
        columns[f"{alias}_error"] = values
    table = Table(Schema(schema_cols), columns)
    if query.having is not None:
        table = table.filter(query.having.evaluate(table))
    if query.order_by:
        table = table.sort_by(list(query.order_by))
    if query.limit is not None:
        table = table.head(query.limit)
    return table


def _max_rel_halfwidth(
    estimates: Dict[str, np.ndarray], halfwidths: Dict[str, np.ndarray]
) -> float:
    """Worst finite relative half-width across groups and bounded aliases."""
    worst = float("nan")
    for alias, widths in halfwidths.items():
        values = estimates[alias]
        for halfwidth, value in zip(widths, values):
            rel = relative_halfwidth(float(halfwidth), float(value))
            if math.isfinite(rel) and not (worst >= rel):
                worst = rel
    return worst


def _converged(
    estimates: Dict[str, np.ndarray],
    halfwidths: Dict[str, np.ndarray],
    until_rel_error: float,
) -> bool:
    """True when every (group, bounded aggregate) bound is tight enough.

    Non-finite relative half-widths (no variance estimate yet, zero
    estimates with nonzero bounds) block convergence -- an unknown bound
    is not a tight one.
    """
    if not halfwidths:
        return False
    for alias, widths in halfwidths.items():
        values = estimates[alias]
        for halfwidth, value in zip(widths, values):
            rel = relative_halfwidth(float(halfwidth), float(value))
            if not (math.isfinite(rel) and rel <= until_rel_error):
                return False
    return True


def _stream_bound_method(system) -> str:
    """Map the system's bound family onto the streaming estimator's."""
    return "hoeffding" if system._bound_method == "hoeffding" else "chebyshev"


def _chunk_estimates(
    system,
    query: Query,
    chunk: StreamChunk,
    ranges: Dict[str, Dict[Tuple, float]],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Per-group estimates and half-widths for one cumulative chunk."""
    method = _stream_bound_method(system)
    confidence = system._confidence
    m, n = chunk.rows_seen, chunk.rows_total
    partial = chunk.partial
    estimates: Dict[str, np.ndarray] = {}
    halfwidths: Dict[str, np.ndarray] = {}
    for agg in query.aggregates():
        state = partial.states[agg.alias]
        if agg.func not in BOUNDED_AGGREGATES:
            estimates[agg.alias] = finalize_state(state)
            continue
        estimates[agg.alias] = expansion_estimate(agg.func, state, m, n)
        if agg.func == "avg":
            # Ratio estimator: delta-method variance from the scaled
            # numerator (sum) and denominator (count) expansions, matching
            # the batch estimator's conservative simplification.
            num_var = expansion_variance(state.total, state.total_sq, m, n)
            den_var = expansion_variance(state.count, state.count, m, n)
            den = state.count * (n / m) if m else np.zeros_like(state.count)
            value = estimates[agg.alias]
            with np.errstate(divide="ignore", invalid="ignore"):
                variance = np.where(
                    den > 0,
                    (num_var + value * value * den_var) / (den * den),
                    np.nan,
                )
            widths = np.array(
                [
                    stream_halfwidth(
                        "chebyshev", math.sqrt(v), confidence=confidence
                    )
                    if v >= 0
                    else float("nan")
                    for v in variance
                ]
            )
        elif method == "hoeffding":
            group_ranges = ranges[agg.alias]
            widths = np.array(
                [
                    stream_halfwidth(
                        "hoeffding",
                        0.0,
                        confidence=confidence,
                        value_range=group_ranges.get(key, 0.0),
                        rows_seen=m,
                        rows_total=n,
                    )
                    for key in partial.group_keys
                ]
            )
        else:
            if agg.func == "count":
                variance = expansion_variance(state.count, state.count, m, n)
            else:
                variance = expansion_variance(state.total, state.total_sq, m, n)
            widths = np.array(
                [
                    stream_halfwidth(
                        method, math.sqrt(v), confidence=confidence
                    )
                    if v >= 0
                    else float("nan")
                    for v in variance
                ]
            )
        halfwidths[agg.alias] = widths
    return estimates, halfwidths


def _support(partial: GroupByPartial) -> Dict[Tuple, int]:
    """Qualifying rows seen per group key (any state's count array)."""
    if not partial.states:
        return {}
    counts = next(iter(partial.states.values())).count
    return {
        key: int(counts[i]) for i, key in enumerate(partial.group_keys)
    }


def _stream_metrics(system, table: str):
    metrics = system.telemetry.metrics
    if not metrics.enabled:
        return None
    return {
        "queries": metrics.counter(
            "stream_queries_total",
            "Streams started by sql_stream(), per table.",
            ("table",),
        ),
        "chunks": metrics.counter(
            "stream_chunks_total",
            "Chunks folded into streaming answers, per table.",
            ("table",),
        ),
        "early_stops": metrics.counter(
            "stream_early_stops_total",
            "Streams stopped early because until_rel_error was met.",
            ("table",),
        ),
        "deadline": metrics.counter(
            "stream_deadline_total",
            "Streams interrupted by a deadline (partial terminal answer).",
            ("table",),
        ),
        "ttfa": metrics.histogram(
            "stream_time_to_first_answer_seconds",
            "Wall time from sql_stream() to the first emitted answer.",
            ("table",),
        ),
    }


def stream_answers(
    system,
    sql: Union[str, Query],
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    until_rel_error: Optional[float] = None,
    deadline: Union[Deadline, float, None] = None,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[StreamingAnswer]:
    """The generator behind :meth:`AquaSystem.sql_stream` (see its docs)."""
    if chunk_rows < 1:
        raise StreamError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if until_rel_error is not None and until_rel_error <= 0:
        raise StreamError(
            f"until_rel_error must be > 0, got {until_rel_error}"
        )
    started = time.perf_counter()
    query = parse_query(sql) if isinstance(sql, str) else sql
    _validate_query(query)
    base_name = query.base_table_name()
    state = system._state(base_name)
    system._flush_pending(base_name)
    base = state.table

    # The ambient (or explicit) deadline is captured once and checked
    # between chunks; deadline_scope is entered per resumption only, so the
    # generator never leaks a contextvar into its consumer across yields.
    resolved = Deadline.resolve(deadline)
    if resolved is None:
        resolved = current_deadline()

    cache_key = _stream_cache_key(system, query, base_name)
    if cache_key is not None:
        cached = system._cache.get(cache_key)
        if cached is not None:
            # An exact final answer trivially meets any relative-error
            # target, so converged tracks the *caller's* request here.
            yield dataclass_replace(
                cached,
                cache_hit=True,
                converged=until_rel_error is not None,
            )
            return

    # The same plan exact() builds, cached under a stream-specific
    # strategy tag so rewritten synopsis plans never collide with it.
    logical, __ = system._optimized_plan(
        lower_query(query, system.catalog), base_name, "stream"
    )
    stream_plan = _extract_stream_plan(logical, base_name)
    tracer = system.telemetry.tracer
    metrics = _stream_metrics(system, base_name)
    if metrics is not None:
        metrics["queries"].inc(table=base_name)

    ranges: Dict[str, Dict[Tuple, float]] = {}
    if _stream_bound_method(system) == "hoeffding":
        ranges = {
            agg.alias: _hoeffding_ranges(base, query, agg)
            for agg in query.aggregates()
            if agg.func in ("sum", "count")
        }

    internal = _moment_aggregates(query)
    rng = rng if rng is not None else system._rng
    chunks_total = len(chunk_bounds(base.num_rows, chunk_rows))
    last: Optional[StreamingAnswer] = None
    emitted_first = False

    def _scan_and_partial(chunk_table: Table):
        scanned = stream_plan.apply_scan(chunk_table)
        from ..engine.groupby import partial_group_by

        return partial_group_by(scanned, list(query.group_by), internal)

    # Reimplement the chunk loop here (rather than reusing
    # stream_group_partials verbatim) so the optimized scan stage runs on
    # the raw chunk before grouping, while rows_seen stays the pre-filter
    # prefix length the expansion estimator needs.
    perm = rng.permutation(base.num_rows)
    bounds = chunk_bounds(base.num_rows, chunk_rows)
    from ..engine.groupby import merge_group_partials

    cumulative = None
    for index, (start, stop) in enumerate(bounds):
        is_last = index == len(bounds) - 1
        try:
            if resolved is not None:
                resolved.check("stream_chunk")
            with deadline_scope(resolved):
                with tracer.span(
                    "stream_chunk",
                    table=base_name,
                    chunk=index,
                    rows=stop - start,
                ):
                    if is_last:
                        answer = _exact_landing(
                            system, query, logical, base_name,
                            chunks_total, base.num_rows, started,
                            until_rel_error,
                        )
                    else:
                        partial = _scan_and_partial(base.take(perm[start:stop]))
                        cumulative = (
                            partial
                            if cumulative is None
                            else merge_group_partials([cumulative, partial])
                        )
                        chunk = StreamChunk(
                            index=index,
                            chunks_total=chunks_total,
                            rows_seen=stop,
                            rows_total=base.num_rows,
                            partial=cumulative,
                        )
                        answer = _stream_emission(
                            system, query, base.schema, chunk, ranges,
                            until_rel_error, started,
                        )
        except DeadlineExceeded:
            if last is None:
                raise
            if metrics is not None:
                metrics["deadline"].inc(table=base_name)
            yield dataclass_replace(
                last,
                provenance=PROVENANCE_PARTIAL,
                final=False,
                elapsed_seconds=time.perf_counter() - started,
            )
            return
        if metrics is not None:
            metrics["chunks"].inc(table=base_name)
            if not emitted_first:
                metrics["ttfa"].observe(
                    time.perf_counter() - started, table=base_name
                )
                emitted_first = True
        last = answer
        yield answer
        if answer.final:
            if cache_key is not None:
                system._cache.put(
                    _stream_cache_key(system, query, base_name), answer
                )
            return
        if answer.converged:
            if metrics is not None:
                metrics["early_stops"].inc(table=base_name)
            return


def _stream_emission(
    system,
    query: Query,
    base_schema: Schema,
    chunk: StreamChunk,
    ranges: Dict[str, Dict[Tuple, float]],
    until_rel_error: Optional[float],
    started: float,
) -> StreamingAnswer:
    estimates, halfwidths = _chunk_estimates(system, query, chunk, ranges)
    result = _shape_emission(
        query, base_schema, chunk.partial, estimates, halfwidths
    )
    converged = (
        until_rel_error is not None
        and _converged(estimates, halfwidths, until_rel_error)
    )
    return StreamingAnswer(
        result=result,
        chunk_index=chunk.index,
        chunks_total=chunk.chunks_total,
        rows_seen=chunk.rows_seen,
        rows_total=chunk.rows_total,
        support=_support(chunk.partial),
        provenance=PROVENANCE_STREAM,
        final=False,
        converged=converged,
        max_rel_halfwidth=_max_rel_halfwidth(estimates, halfwidths),
        confidence=system._confidence,
        bound_method=_stream_bound_method(system),
        elapsed_seconds=time.perf_counter() - started,
    )


def _exact_landing(
    system,
    query: Query,
    logical,
    base_name: str,
    chunks_total: int,
    rows_total: int,
    started: float,
    until_rel_error: Optional[float],
) -> StreamingAnswer:
    """The terminal emission: run the batch plan over the full relation.

    Bit-identical to :meth:`AquaSystem.exact` by construction -- same
    optimized logical plan, same executor -- with zero half-widths
    appended per bounded aggregate.
    """
    result = execute_plan(
        logical,
        system.catalog,
        parallel=system._executor,
        tracer=system.telemetry.tracer,
    )
    support: Dict[Tuple, int] = {}
    for agg in query.aggregates():
        if agg.func == "count":
            keys = [
                tuple(
                    v.item() if hasattr(v, "item") else v
                    for v in (result.column(k)[i] for k in query.group_by)
                )
                for i in range(result.num_rows)
            ]
            counts = result.column(agg.alias)
            support = {
                key: int(counts[i]) for i, key in enumerate(keys)
            }
            break
    for agg in query.aggregates():
        if agg.func in BOUNDED_AGGREGATES:
            result = result.with_column(
                Column(f"{agg.alias}_error", ColumnType.FLOAT),
                np.zeros(result.num_rows),
            )
    return StreamingAnswer(
        result=result,
        chunk_index=chunks_total - 1,
        chunks_total=chunks_total,
        rows_seen=rows_total,
        rows_total=rows_total,
        support=support,
        provenance=PROVENANCE_FINAL,
        final=True,
        converged=until_rel_error is not None,
        max_rel_halfwidth=0.0,
        confidence=system._confidence,
        bound_method=_stream_bound_method(system),
        elapsed_seconds=time.perf_counter() - started,
    )


def _stream_cache_key(system, query: Query, base_name: str):
    """Answer-cache key for a completed stream (None = caching disabled).

    ``"stream"`` marks the entry so batch answers and streams never alias;
    otherwise the key mirrors the batch one: data version, the query's
    *structural* canonical fingerprint (alias-sensitive, group order
    preserved -- a cached stream's result table bakes in the output
    schema, so alias-insensitive matching would serve wrongly-named
    columns), confidence, bound family.  Streaming answers never populate
    the semantic reuse tiers: a stream's terminal emission is an *exact*
    answer, not a synopsis scan, so there is no snapshot to roll up.
    """
    if system._cache is None:
        return None
    return (
        base_name,
        system._state(base_name).version,
        "stream",
        canonicalize_query(query).structural,
        system._confidence,
        system._bound_method,
    )

