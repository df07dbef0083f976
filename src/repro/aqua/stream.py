"""Progressive streaming answers: online aggregation over chunked scans.

:func:`stream_answers` is the driver behind
:meth:`~repro.aqua.system.AquaSystem.sql_stream`.  It permutes the base
relation once, cuts the permutation into fixed-size chunks, restricts
each chunk to the columns the query reads and filters it by the WHERE
predicate, and folds its :func:`~repro.engine.groupby.partial_group_by`
into a running :class:`~repro.engine.groupby.GroupByPartial` with
:func:`~repro.engine.groupby.merge_group_partials`.  Because the row
order is a uniform random permutation, the first ``m`` rows are a simple
random sample without replacement: the batch expansion estimator applies
with the whole relation as one stratum (``N`` rows, ``m`` seen).

Every SUM/COUNT/AVG input is folded once per moment key
(:func:`~repro.aqua.reuse.moment_keys`) as a ``var`` state, so each
group carries ``(n, sum(y'), sum(y'^2))`` of the zero-extended values.
An emission scales the sums by ``N / m``, takes each key's variance from
:func:`~repro.estimators.point.expansion_variance`, and finalizes through
:func:`~repro.aqua.reuse.finalize_moments` -- the arithmetic the moments
route and the roll-up tier use.  Under the Hoeffding family, SUM and
COUNT half-widths come from the groups' zero-extended value ranges
instead.  MIN/MAX/VAR fold as themselves and carry no error column.

The emission contract (see ``docs/STREAMING.md``):

* every intermediate answer has ``provenance="stream"`` and half-widths
  from the system's bound family at its confidence level;
* the terminal answer of a run-to-completion stream is
  :meth:`AquaSystem.exact`'s answer -- the "exact landing" -- with
  ``provenance="exact"``, ``final=True`` and zero half-widths (chunk-
  merged float sums differ from whole-table sums in ULPs; running
  ``exact()`` once the prefix is the whole table removes that gap);
* ``support`` counts the qualifying rows seen per group, so it is non-
  decreasing across emissions and, on the landing, counts the whole
  relation;
* a deadline expiring mid-stream re-emits the last complete answer with
  ``provenance="partial"`` instead of raising mid-merge;
* when ``until_rel_error`` is met the stream stops early with
  ``converged=True``;
* only a run-to-completion final answer is stored in the
  :class:`~repro.aqua.cache.AnswerCache` (early-stopped and interrupted
  streams never pollute it), and only while the data version it started
  from is still current.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..engine.aggregates import Aggregate, finalize_state
from ..engine.expressions import Lit
from ..engine.groupby import (
    GroupByPartial,
    group_ids_for,
    merge_group_partials,
    partial_group_by,
)
from ..engine.query import Query
from ..engine.schema import Schema
from ..engine.sql import parse_query
from ..engine.table import Table
from ..errors import DeadlineExceeded, StreamError
from ..estimators.errors import (
    hoeffding_halfwidth_sum,
    relative_halfwidth,
    zero_extended_ranges,
)
from ..estimators.point import expansion_variance
from ..plan import canonicalize_query
from ..serve.deadline import Deadline, current_deadline, deadline_scope
from .reuse import (
    ESTIMABLE_AGGREGATES,
    ONES_KEY,
    finalize_moments,
    lay_out,
    moment_keys,
)

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


def chunk_bounds(num_rows: int, chunk_rows: int) -> List[Tuple[int, int]]:
    """Half-open ``[start, stop)`` offsets cutting ``num_rows`` into chunks.

    The last chunk absorbs the remainder, so every row lands in exactly one
    chunk and no chunk is empty (except for an empty table, which yields a
    single empty chunk so the stream still emits a final answer).
    """
    if num_rows <= 0:
        return [(0, 0)]
    return [
        (start, min(start + chunk_rows, num_rows))
        for start in range(0, num_rows, chunk_rows)
    ]


def _read_columns(query: Query, schema: Schema) -> List[str]:
    """The base columns the query reads, in table order (at least one, so
    a chunk keeps its row count)."""
    needed = set(query.group_by)
    for aggregate in query.aggregates():
        needed.update(aggregate.expr.referenced_columns())
    if query.where is not None:
        needed.update(query.where.referenced_columns())
    return [name for name in schema.names if name in needed] or list(
        schema.names[:1]
    )


def _folded_aggregates(query: Query) -> Tuple[List[Aggregate], Dict[str, str]]:
    """The aggregates each chunk folds, and each moment key's state alias.

    A SUM/COUNT/AVG input is folded once per moment key as a ``var``
    state (SUM(v) and AVG(v) share ``v``; COUNT and AVG share the ones
    column), so every group carries its ``(n, sum, sum_sq)`` triple.  The
    ones column is always folded: its count is the group's support.
    MIN/MAX/VAR fold as themselves under their own aliases.
    """
    inputs = {ONES_KEY: Lit(1)}
    folded: List[Aggregate] = []
    for aggregate in query.aggregates():
        if aggregate.func in ESTIMABLE_AGGREGATES:
            inputs.setdefault(moment_keys(aggregate)[0], aggregate.expr)
        else:
            folded.append(aggregate)
    # No SQL identifier starts with "#", so a moment state never shadows
    # a MIN/MAX/VAR alias.
    aliases = {key: f"#{key}" for key in inputs}
    folded += [
        Aggregate("var", expr, aliases[key]) for key, expr in inputs.items()
    ]
    return folded, aliases


def _chunk_estimates(
    system,
    query: Query,
    partial: GroupByPartial,
    aliases: Dict[str, str],
    ranges: Dict[str, Dict[Tuple, float]],
    rows_seen: int,
    rows_total: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Per-group estimates and half-widths for one cumulative prefix.

    The relation is one stratum: all ``rows_total`` rows its population,
    the ``rows_seen`` its sample; there is no variance estimate until two
    rows are seen.
    """
    m, n = rows_seen, rows_total
    totals: Dict[str, np.ndarray] = {}
    variances: Dict[str, np.ndarray] = {}
    for key, alias in aliases.items():
        state = partial.states[alias]
        totals[key] = (n / m) * state.total
        variances[key] = (
            expansion_variance(n, m, state.total, state.total_sq)
            if m >= 2
            else np.full(len(state.total), np.nan)
        )
    aggregates = query.aggregates()
    estimates, halfwidths = finalize_moments(
        [a for a in aggregates if a.func in ESTIMABLE_AGGREGATES],
        totals,
        variances,
        system._confidence,
    )
    for aggregate in aggregates:
        if aggregate.func not in ESTIMABLE_AGGREGATES:
            estimates[aggregate.alias] = finalize_state(
                partial.states[aggregate.alias]
            )
        elif aggregate.alias in ranges:  # Hoeffding: SUM and COUNT
            group_ranges = ranges[aggregate.alias]
            halfwidths[aggregate.alias] = np.array(
                [
                    hoeffding_halfwidth_sum(
                        group_ranges[key], m, n, system._confidence
                    )
                    for key in partial.group_keys
                ]
            )
    return estimates, halfwidths


def _hoeffding_ranges(
    system, base, query: Query
) -> Dict[str, Dict[Tuple, float]]:
    """Zero-extended per-answer-group value ranges of each SUM/COUNT
    input over the base relation (empty unless the system bounds with
    Hoeffding; AVG always takes the Chebyshev bound)."""
    if system._bound_method != "hoeffding":
        return {}
    ids, keys, num = group_ids_for(base, list(query.group_by))
    return {
        aggregate.alias: dict(
            zip(keys, zero_extended_ranges(base, aggregate, ids, num))
        )
        for aggregate in query.aggregates()
        if aggregate.func in ("sum", "count")
    }


def _relative_halfwidths(
    estimates: Dict[str, np.ndarray], halfwidths: Dict[str, np.ndarray]
) -> List[float]:
    """Each (group, bounded aggregate) relative half-width."""
    return [
        relative_halfwidth(float(halfwidth), float(value))
        for alias, widths in halfwidths.items()
        for halfwidth, value in zip(widths, estimates[alias])
    ]


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
    """The generator behind :meth:`AquaSystem.sql_stream` (see its docs).

    Streams the stage query (:meth:`~repro.engine.query.Query.bind`) and
    presents each emission in the query's own columns; a completed stream
    is cached in stage layout.
    """
    if chunk_rows < 1:
        raise StreamError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if until_rel_error is not None and until_rel_error <= 0:
        raise StreamError(
            f"until_rel_error must be > 0, got {until_rel_error}"
        )
    started = time.perf_counter()
    user = parse_query(sql) if isinstance(sql, str) else sql
    _validate_query(user)
    query, present = user.bind()

    def shown(answer: StreamingAnswer) -> StreamingAnswer:
        if present is None:
            return answer
        return dataclass_replace(answer, result=present(answer.result))

    base_name = query.base_table_name()
    state = system._state(base_name)
    system._flush_pending(base_name)
    with state.lock:
        base, version = state.table, state.version

    # The ambient (or explicit) deadline is captured once and checked
    # between chunks; deadline_scope is entered per resumption only, so the
    # generator never leaks a contextvar into its consumer across yields.
    resolved = Deadline.resolve(deadline)
    if resolved is None:
        resolved = current_deadline()

    cache_key = _stream_cache_key(system, query, base_name, version)
    if cache_key is not None:
        cached = system._cache.get(cache_key)
        if cached is not None:
            # An exact final answer trivially meets any relative-error
            # target, so converged tracks the *caller's* request here.
            yield shown(
                dataclass_replace(
                    cached,
                    cache_hit=True,
                    converged=until_rel_error is not None,
                )
            )
            return

    tracer = system.telemetry.tracer
    metrics = _stream_metrics(system, base_name)
    if metrics is not None:
        metrics["queries"].inc(table=base_name)

    ranges = _hoeffding_ranges(system, base, query)
    columns = _read_columns(query, base.schema)
    folded, aliases = _folded_aggregates(query)
    rng = rng if rng is not None else system._rng
    perm = rng.permutation(base.num_rows)
    bounds = chunk_bounds(base.num_rows, chunk_rows)
    cumulative: Optional[GroupByPartial] = None
    last: Optional[StreamingAnswer] = None
    emitted_first = False
    for index, (start, stop) in enumerate(bounds):
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
                    chunk = base.take(perm[start:stop]).project(columns)
                    if query.where is not None:
                        chunk = chunk.filter(query.where.evaluate(chunk))
                    partial = partial_group_by(
                        chunk, list(query.group_by), folded
                    )
                    cumulative = (
                        partial
                        if cumulative is None
                        else merge_group_partials([cumulative, partial])
                    )
                    support = cumulative.states[aliases[ONES_KEY]].count
                    common = dict(
                        chunk_index=index,
                        chunks_total=len(bounds),
                        rows_seen=stop,
                        rows_total=base.num_rows,
                        support={
                            key: int(n)
                            for key, n in zip(cumulative.group_keys, support)
                        },
                        confidence=system._confidence,
                        bound_method=system._bound_method,
                    )
                    if index == len(bounds) - 1:
                        answer = _exact_landing(
                            system, query, until_rel_error, started, common
                        )
                    else:
                        answer = _stream_emission(
                            system, query, base.schema, cumulative, aliases,
                            ranges, until_rel_error, started, common,
                        )
        except DeadlineExceeded:
            if last is None:
                raise
            if metrics is not None:
                metrics["deadline"].inc(table=base_name)
            yield shown(
                dataclass_replace(
                    last,
                    provenance=PROVENANCE_PARTIAL,
                    final=False,
                    elapsed_seconds=time.perf_counter() - started,
                )
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
        yield shown(answer)
        if answer.final:
            if cache_key is not None:
                system._store_if_current(
                    base_name,
                    version,
                    lambda: system._cache.put(cache_key, answer),
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
    partial: GroupByPartial,
    aliases: Dict[str, str],
    ranges: Dict[str, Dict[Tuple, float]],
    until_rel_error: Optional[float],
    started: float,
    common: Dict,
) -> StreamingAnswer:
    estimates, halfwidths = _chunk_estimates(
        system, query, partial, aliases, ranges,
        common["rows_seen"], common["rows_total"],
    )
    keys = partial.group_keys
    result, __ = lay_out(
        query,
        base_schema,
        [[key[i] for key in keys] for i in range(len(query.group_by))],
        estimates,
        halfwidths,
    )
    relative = _relative_halfwidths(estimates, halfwidths)
    # An unknown bound (no variance estimate yet, a zero estimate with a
    # nonzero bound, no group seen yet) is not a tight one.
    converged = (
        until_rel_error is not None
        and bool(relative)
        and all(math.isfinite(r) and r <= until_rel_error for r in relative)
    )
    return StreamingAnswer(
        result=result,
        provenance=PROVENANCE_STREAM,
        final=False,
        converged=converged,
        max_rel_halfwidth=max(
            (r for r in relative if math.isfinite(r)), default=float("nan")
        ),
        elapsed_seconds=time.perf_counter() - started,
        **common,
    )


def _exact_landing(
    system,
    query: Query,
    until_rel_error: Optional[float],
    started: float,
    common: Dict,
) -> StreamingAnswer:
    """The terminal emission: :meth:`AquaSystem.exact` over the relation,
    as the guard's exact fallback runs it (zero half-widths), so it is
    bit-identical to ``exact()``."""
    return StreamingAnswer(
        result=system._exact_with_zero_errors(query),
        provenance=PROVENANCE_FINAL,
        final=True,
        converged=until_rel_error is not None,
        max_rel_halfwidth=0.0,
        elapsed_seconds=time.perf_counter() - started,
        **common,
    )


def _stream_cache_key(system, query: Query, base_name: str, version: int):
    """Answer-cache key for a completed stream (None = caching disabled).

    ``"stream"`` marks the entry so batch answers and streams never alias;
    otherwise the key mirrors the batch one: the data ``version`` read when
    the stream started (its entry is stored only while that version is
    still current), the stage query's *structural* canonical fingerprint
    (alias-sensitive, group order preserved -- the cached table is that
    stage query's, presented per probe), confidence, bound family.
    Streaming answers never populate the semantic reuse tiers: a stream's
    terminal emission is an *exact* answer, not a synopsis scan, so there
    is no snapshot to roll up.
    """
    if system._cache is None:
        return None
    return (
        base_name,
        version,
        "stream",
        canonicalize_query(query).structural,
        system._confidence,
        system._bound_method,
    )

