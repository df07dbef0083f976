"""Aggregate function specifications and vectorized grouped reduction.

Supported aggregates: COUNT, SUM, AVG, MIN, MAX, VAR (population variance with
``ddof=1``, matching the ``S`` of Eq. 2 in the paper).  Reduction is performed
per group id using ``np.bincount`` for the additive aggregates and
sort-partition for MIN/MAX.

Every aggregate also has a *mergeable partial state*
(:class:`AggregateState`): per-group ``(n, sum, sum_sq, min, max)`` moments
with an associative merge, so a scan can be split across partitions and the
states combined afterwards (:mod:`repro.engine.executor`'s parallel path).
AVG and VAR are finalized from the merged moments -- never by averaging
per-partition averages, which is wrong whenever partitions differ in size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expressions import Expression, Lit
from .table import Table

__all__ = [
    "AggregateFunction",
    "Aggregate",
    "AggregateState",
    "grouped_reduce",
    "partial_reduce",
    "merge_states",
    "rollup_state",
    "finalize_state",
]


_SUPPORTED = ("count", "sum", "avg", "min", "max", "var")


class AggregateFunction:
    """Enumeration-lite of aggregate function names with validation."""

    def __init__(self, name: str):
        lowered = name.lower()
        if lowered not in _SUPPORTED:
            raise ValueError(
                f"unsupported aggregate {name!r}; supported: {_SUPPORTED}"
            )
        self.name = lowered

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AggregateFunction):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other.lower()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"AggregateFunction({self.name})"


@dataclass(frozen=True)
class Aggregate:
    """One aggregate in a select list: ``func(expr) AS alias``.

    ``COUNT(*)`` is modelled with ``expr = Lit(1)``.
    """

    func: str
    expr: Expression
    alias: str

    def __post_init__(self) -> None:
        AggregateFunction(self.func)

    @classmethod
    def count_star(cls, alias: str = "count") -> "Aggregate":
        return cls("count", Lit(1), alias)

    def evaluate_input(self, table: Table) -> np.ndarray:
        """Evaluate the aggregate's input expression over ``table``."""
        return self.expr.evaluate(table)


def grouped_reduce(
    func: str,
    values: np.ndarray,
    group_ids: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Reduce ``values`` per group.

    Args:
        func: one of count/sum/avg/min/max/var.
        values: per-row input values (ignored for count).
        group_ids: int array mapping each row to ``[0, num_groups)``.
        num_groups: number of groups.

    Returns:
        Array of length ``num_groups`` with the per-group aggregate.  Groups
        with no rows receive 0 for COUNT/SUM, NaN for AVG/MIN/MAX/VAR.
    """
    return finalize_state(partial_reduce(func, values, group_ids, num_groups))


def _extreme_reduce(
    func: str, values: np.ndarray, group_ids: np.ndarray, num_groups: int
) -> np.ndarray:
    """Per-group MIN/MAX via sort-partition: sort rows by group id, then
    reduce contiguous runs with np.minimum/maximum.reduceat.  NaN inputs
    propagate to their group (matching full-column numpy semantics)."""
    out = np.full(num_groups, np.nan)
    if len(values) == 0:
        return out
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    sorted_values = values[order]
    run_starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    run_groups = sorted_ids[run_starts]
    reducer = np.minimum if func == "min" else np.maximum
    out[run_groups] = reducer.reduceat(sorted_values, run_starts)
    return out


@dataclass
class AggregateState:
    """Mergeable per-group partial state for one aggregate.

    Carries only the moments its function needs: ``count`` always; ``total``
    for SUM/AVG/VAR; ``total_sq`` for VAR; ``low``/``high`` for MIN/MAX.
    All arrays are aligned: element ``i`` belongs to group ``i`` of whatever
    group space the state was reduced over.

    States over the *same* group space merge with :meth:`merge` (associative
    and commutative); partition-local states over different group spaces are
    combined with :func:`merge_states` via index maps.
    """

    func: str
    count: np.ndarray
    total: Optional[np.ndarray] = None
    total_sq: Optional[np.ndarray] = None
    low: Optional[np.ndarray] = None
    high: Optional[np.ndarray] = None

    @property
    def num_groups(self) -> int:
        return len(self.count)

    def merge(self, other: "AggregateState") -> "AggregateState":
        """Merge with a state over the same group space."""
        if other.func != self.func or other.num_groups != self.num_groups:
            raise ValueError(
                f"cannot merge {self.func}/{self.num_groups} state with "
                f"{other.func}/{other.num_groups}"
            )
        identity = np.arange(self.num_groups, dtype=np.int64)
        return merge_states([self, other], [identity, identity], self.num_groups)


def partial_reduce(
    func: str,
    values: np.ndarray,
    group_ids: np.ndarray,
    num_groups: int,
) -> AggregateState:
    """Reduce ``values`` per group into a mergeable :class:`AggregateState`.

    Same contract as :func:`grouped_reduce` (which is now just
    ``finalize_state(partial_reduce(...))``), but the result can be merged
    with states from other partitions before finalizing.
    """
    func = AggregateFunction(func).name
    counts = np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    state = AggregateState(func, counts)
    if func == "count":
        return state
    values = np.asarray(values, dtype=np.float64)
    if func in ("sum", "avg", "var"):
        state.total = np.bincount(
            group_ids, weights=values, minlength=num_groups
        )
        if func == "var":
            state.total_sq = np.bincount(
                group_ids, weights=values * values, minlength=num_groups
            )
    elif func == "min":
        state.low = _extreme_reduce("min", values, group_ids, num_groups)
    else:  # max
        state.high = _extreme_reduce("max", values, group_ids, num_groups)
    return state


def _merge_extremes(
    acc: np.ndarray,
    seen: np.ndarray,
    values: np.ndarray,
    occupied: np.ndarray,
    targets: np.ndarray,
    reducer,
) -> None:
    """Fold one partial's per-group extrema into the accumulator.

    Only groups the partial actually scanned rows for (``occupied``)
    contribute -- an empty group must not inject its NaN placeholder -- but
    a genuine NaN *value* in an occupied group propagates, matching the
    serial reduction.
    """
    targets = targets[occupied]
    values = values[occupied]
    first = ~seen[targets]
    acc[targets[first]] = values[first]
    rest = ~first
    acc[targets[rest]] = reducer(acc[targets[rest]], values[rest])
    seen[targets] = True


def merge_states(
    partials: Sequence[AggregateState],
    index_maps: Sequence[np.ndarray],
    num_groups: int,
) -> AggregateState:
    """Merge partition-local states into one state over a merged group space.

    Args:
        partials: one state per partition, all for the same function.
        index_maps: ``index_maps[p][i]`` is the merged group index of
            partition ``p``'s local group ``i``.  Indices must be unique
            within one map (local groups are distinct keys).
        num_groups: size of the merged group space.

    Moments are summed; extrema are combined with np.minimum/np.maximum,
    skipping groups a partition never scanned (so empty partitions and
    absent groups cannot poison the merge with NaN), while NaN values that
    a partition really observed still propagate.
    """
    if not partials:
        raise ValueError("merge_states needs at least one partial state")
    func = partials[0].func
    counts = np.zeros(num_groups, dtype=np.float64)
    needs_total = func in ("sum", "avg", "var")
    total = np.zeros(num_groups, dtype=np.float64) if needs_total else None
    total_sq = np.zeros(num_groups, dtype=np.float64) if func == "var" else None
    low = np.full(num_groups, np.nan) if func == "min" else None
    high = np.full(num_groups, np.nan) if func == "max" else None
    seen = (
        np.zeros(num_groups, dtype=bool) if func in ("min", "max") else None
    )
    for state, targets in zip(partials, index_maps):
        if state.func != func:
            raise ValueError(
                f"cannot merge {state.func!r} state into {func!r} merge"
            )
        if state.num_groups == 0:
            continue
        targets = np.asarray(targets, dtype=np.int64)
        counts[targets] += state.count
        if total is not None:
            total[targets] += state.total
        if total_sq is not None:
            total_sq[targets] += state.total_sq
        occupied = state.count > 0
        if low is not None:
            _merge_extremes(low, seen, state.low, occupied, targets, np.minimum)
        if high is not None:
            _merge_extremes(
                high, seen, state.high, occupied, targets, np.maximum
            )
    return AggregateState(func, counts, total, total_sq, low, high)


def rollup_state(
    state: AggregateState,
    targets: np.ndarray,
    num_groups: int,
) -> AggregateState:
    """Merge a fine-grained state into coarser groups (many-to-one).

    The congressional datacube (paper Section 6) builds coarse group-by
    summaries by *merging* finer strata; this is that merge as a state
    operation, used by the semantic cache's roll-up tier to answer
    ``GROUP BY nation`` from a cached ``GROUP BY nation, year`` state.

    Unlike :func:`merge_states`, ``targets`` may repeat: several fine
    groups land in the same coarse group.  Moments are summed with
    ``np.bincount`` (deterministic index-order accumulation, so two
    roll-ups of the same state are bit-identical); extrema combine with
    ``np.minimum.at``/``np.maximum.at``, skipping fine groups that never
    scanned a row while still propagating genuinely observed NaNs.

    Args:
        state: fine-grained state, one entry per fine group.
        targets: ``targets[i]`` is the coarse group of fine group ``i``.
        num_groups: size of the coarse group space.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) != state.num_groups:
        raise ValueError(
            f"targets has {len(targets)} entries for a state with "
            f"{state.num_groups} groups"
        )
    counts = np.bincount(targets, weights=state.count, minlength=num_groups)
    total = (
        np.bincount(targets, weights=state.total, minlength=num_groups)
        if state.total is not None
        else None
    )
    total_sq = (
        np.bincount(targets, weights=state.total_sq, minlength=num_groups)
        if state.total_sq is not None
        else None
    )
    low = high = None
    if state.low is not None or state.high is not None:
        occupied = state.count > 0
        seen = np.zeros(num_groups, dtype=bool)
        seen[targets[occupied]] = True
        if state.low is not None:
            low = np.full(num_groups, np.inf)
            np.minimum.at(low, targets[occupied], state.low[occupied])
            low[~seen] = np.nan
        if state.high is not None:
            high = np.full(num_groups, -np.inf)
            np.maximum.at(high, targets[occupied], state.high[occupied])
            high[~seen] = np.nan
    return AggregateState(state.func, counts, total, total_sq, low, high)


def finalize_state(state: AggregateState) -> np.ndarray:
    """Compute the final per-group aggregate from a (merged) state.

    AVG and VAR are derived from the merged moments -- identical formulas
    to the serial reduction, so a single-partition round trip is bit-exact.
    Empty groups finalize to 0 for COUNT/SUM and NaN for AVG/MIN/MAX/VAR;
    single-row groups have variance 0, never NaN/inf.
    """
    func = state.func
    counts = state.count
    num_groups = len(counts)
    if num_groups == 0:
        return np.empty(0, dtype=np.float64)
    if func == "count":
        return counts
    if func == "sum":
        return state.total
    if func == "avg":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(counts > 0, state.total / counts, np.nan)
    if func == "var":
        out = np.full(num_groups, np.nan)
        multi = counts > 1
        with np.errstate(divide="ignore", invalid="ignore"):
            # Unbiased sample variance: (sum(x^2) - n*mean^2) / (n - 1).
            means = np.where(
                counts > 0, state.total / np.maximum(counts, 1), 0.0
            )
            numer = state.total_sq - counts * means * means
            out[multi] = np.maximum(numer[multi], 0.0) / (counts[multi] - 1.0)
        out[counts == 1] = 0.0
        return out
    return state.low if func == "min" else state.high
