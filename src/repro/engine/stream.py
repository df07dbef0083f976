"""Chunked online aggregation over randomized partition partials.

The streaming layer's engine half: permute a table's rows once, cut the
permutation into fixed-size chunks, and fold each chunk's
:func:`~repro.engine.groupby.partial_group_by` into a running
:class:`~repro.engine.groupby.GroupByPartial` with
:func:`~repro.engine.groupby.merge_group_partials`.  Because the row order
is a uniform random permutation, the first ``m`` rows of the stream are a
simple random sample without replacement of size ``m`` -- exactly the
sampling model the estimator and bound formulas below assume (Hellerstein-
style online aggregation, built from the PR 3 mergeable states).

Every bounded aggregate (SUM / COUNT / AVG) is streamed internally as a
``var`` state so each group carries the full ``(n, sum(x), sum(x^2))``
moment triple: enough for both the scaled point estimate and its variance,
without a second pass.  MIN/MAX/VAR stream as themselves (running extremes
and moments); they get no error column.

The estimator is the zero-extended expansion estimator of
:mod:`repro.estimators.point` specialized to a single stratum: rows that
fail the WHERE predicate or belong to another group contribute ``y' = 0``,
so with ``m`` of ``N`` rows seen and per-group moments ``s = sum(y')``,
``ss = sum(y'^2)``::

    SUM_est  = (N / m) * s
    s'^2     = (ss - s^2 / m) / (m - 1)          # variance of the y'
    Var(SUM) = N^2 * (1 - m/N) * s'^2 / m        # with the FPC

COUNT is SUM of the qualifying indicator; AVG is the ratio ``s / n`` with
the same first-order delta-method variance the batch estimator uses.  The
variance is the batch kernel's,
:func:`repro.estimators.point.expansion_variance`, with the whole relation
as one stratum (``N`` rows, ``m`` seen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .aggregates import Aggregate, AggregateState
from .groupby import GroupByPartial, merge_group_partials, partial_group_by
from .table import Table

__all__ = [
    "BOUNDED_AGGREGATES",
    "STREAM_BOUND_METHODS",
    "StreamChunk",
    "chunk_bounds",
    "expansion_estimate",
    "stream_group_partials",
    "stream_halfwidth",
]

#: Aggregates that scale with the fraction of data seen and carry an
#: ``<alias>_error`` column while streaming.
BOUNDED_AGGREGATES = ("sum", "count", "avg")

#: Bound families a streaming halfwidth can be computed from.
STREAM_BOUND_METHODS = ("normal", "chebyshev", "hoeffding")


def chunk_bounds(num_rows: int, chunk_rows: int) -> List[Tuple[int, int]]:
    """Half-open ``[start, stop)`` offsets cutting ``num_rows`` into chunks.

    The last chunk absorbs the remainder, so every row lands in exactly one
    chunk and no chunk is empty (except for an empty table, which yields a
    single empty chunk so the stream still emits a final answer).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if num_rows <= 0:
        return [(0, 0)]
    starts = list(range(0, num_rows, chunk_rows))
    return [(start, min(start + chunk_rows, num_rows)) for start in starts]


@dataclass
class StreamChunk:
    """One cumulative step of a chunked group-by stream.

    Attributes:
        index: 0-based chunk index.
        chunks_total: total number of chunks in the stream.
        rows_seen: rows of the (pre-filter) permuted prefix consumed so
            far -- the ``m`` of the expansion estimator.
        rows_total: the table's total row count ``N``.
        partial: the merged :class:`GroupByPartial` over the whole prefix.
    """

    index: int
    chunks_total: int
    rows_seen: int
    rows_total: int
    partial: GroupByPartial

    @property
    def fraction(self) -> float:
        return self.rows_seen / self.rows_total if self.rows_total else 1.0


def stream_group_partials(
    table: Table,
    key_columns: Sequence[str],
    aggregates: Sequence[Aggregate],
    chunk_rows: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[StreamChunk]:
    """Yield cumulative prefix partials over a random permutation of rows.

    Each yielded :class:`StreamChunk` carries the merge of every chunk's
    :func:`partial_group_by` so far; by associativity of the state merge,
    chunk ``k``'s partial equals ``partial_group_by`` over the concatenated
    first ``k + 1`` chunks (bit-identically for exactly-representable
    inputs -- the property suite pins this).
    """
    rng = rng if rng is not None else np.random.default_rng()
    perm = rng.permutation(table.num_rows)
    bounds = chunk_bounds(table.num_rows, chunk_rows)
    cumulative: Optional[GroupByPartial] = None
    for index, (start, stop) in enumerate(bounds):
        chunk = table.take(perm[start:stop])
        partial = partial_group_by(chunk, key_columns, aggregates)
        cumulative = (
            partial
            if cumulative is None
            else merge_group_partials([cumulative, partial])
        )
        yield StreamChunk(
            index=index,
            chunks_total=len(bounds),
            rows_seen=stop,
            rows_total=table.num_rows,
            partial=cumulative,
        )


def expansion_estimate(
    func: str, state: AggregateState, rows_seen: int, rows_total: int
) -> np.ndarray:
    """Per-group point estimate from a streamed ``var`` moment state.

    ``state`` must carry the zero-extended moments of a bounded aggregate's
    input (``func="var"`` internally: count, total, total_sq per group);
    ``func`` names the *user's* aggregate.  SUM and COUNT scale by
    ``N / m``; AVG is the within-sample ratio (unbiased for SRSWOR without
    any scaling, since the scale factors cancel).
    """
    if func not in BOUNDED_AGGREGATES:
        raise ValueError(f"no streaming estimator for {func!r}")
    counts = state.count
    if rows_seen <= 0:
        return np.full(len(counts), np.nan)
    scale = rows_total / rows_seen
    if func == "count":
        return counts * scale
    if func == "sum":
        return state.total * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts > 0, state.total / counts, np.nan)


def stream_halfwidth(
    method: str,
    std_error: float,
    *,
    confidence: Optional[float] = None,
    value_range: float = 0.0,
    rows_seen: int = 0,
    rows_total: int = 0,
) -> float:
    """One group's CI half-width under the chosen bound family.

    ``normal`` and ``chebyshev`` need only the estimator's standard error;
    ``hoeffding`` is distribution-free and instead needs the group's
    zero-extended value range plus the ``m`` of ``N`` sample counts.  All
    three are non-increasing in the rows seen for fixed moments, which the
    property suite verifies.  ``confidence`` defaults to the estimator
    package's ``DEFAULT_CONFIDENCE``.
    """
    # Imported lazily: estimators sits above engine in the layering, and
    # this is the one spot the streaming engine reaches up into it.
    from ..estimators.errors import (
        DEFAULT_CONFIDENCE,
        chebyshev_halfwidth,
        hoeffding_halfwidth_sum,
        normal_halfwidth,
    )

    if confidence is None:
        confidence = DEFAULT_CONFIDENCE
    if method == "normal":
        return normal_halfwidth(std_error, confidence)
    if method == "chebyshev":
        return chebyshev_halfwidth(std_error, confidence)
    if method == "hoeffding":
        return hoeffding_halfwidth_sum(
            value_range, rows_seen, rows_total, confidence
        )
    raise ValueError(
        f"unknown stream bound method {method!r}; "
        f"expected one of {STREAM_BOUND_METHODS}"
    )
