"""One-pass construction drivers (Section 6).

Two routes to a congressional sample without a precomputed data cube:

* run the allocation's Eq. 8 maintainer over the stream with ``Y = X``,
  then *subsample* the floating-size result down to the fixed budget ``X``
  (``run the algorithm with Y = X, computing the scale down factor, and
  then subsampling the sample to achieve the desired size X``);
* or, when a :class:`~repro.maintenance.datacube.CountDataCube` *is*
  available, compute exact target sizes and draw each group's sample in
  one pass (:func:`construct_from_cube`).

Every allocation is maintained the same way: :func:`maintainer_for` hands
the strategy's groupings ``𝒯`` to a
:class:`~repro.maintenance.congress.CongressMaintainer`, so House, Senate,
Basic Congress and Congress samples all keep each row with its Eq. 8
probability and come out with Bernoulli sizes, trimmed to ``X`` by
:func:`subsample_to_budget`.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..core.allocation import AllocationStrategy
from ..core.basic_congress import BasicCongress
from ..core.congress import Congress
from ..core.house import House
from ..core.senate import Senate
from ..engine.schema import Schema
from ..engine.table import Table
from ..obs import Telemetry
from ..sampling.rounding import largest_remainder_array
from ..sampling.stratified import StratifiedSample
from .base import MaintainedSample
from .congress import CongressMaintainer
from .datacube import CountDataCube

__all__ = [
    "subsample_to_budget",
    "construct_one_pass",
    "construct_from_cube",
    "maintainer_for",
]

RowStream = Iterable[Sequence]


def subsample_to_budget(
    maintained: MaintainedSample,
    budget: int,
    rng: Optional[np.random.Generator] = None,
) -> MaintainedSample:
    """Uniformly subsample each group so the total sample size is ``budget``.

    Per-group targets are proportional to realized sizes (this applies the
    scale-down factor ``f`` of Equation 6 empirically), rounded by largest
    remainder so the final total is exact.  Subsampling a uniform sample
    uniformly yields a uniform sample, so stratum validity is preserved.

    One ``rng.random`` draw covers every member, groups in the snapshot's
    order; each group keeps its ``target`` members with the smallest
    numbers, in ascending order of them.  A sample already within budget
    comes back unchanged and draws nothing.
    """
    rng = rng if rng is not None else np.random.default_rng()
    sizes = maintained.sizes
    total = int(sizes.sum())
    if total <= budget:
        return maintained
    wanted = largest_remainder_array(
        sizes * (budget / total), total=budget, caps=sizes
    )
    group = np.repeat(
        np.arange(len(sizes), dtype=np.min_scalar_type(max(len(sizes) - 1, 0))),
        sizes,
    )
    order = _by_group_then_draw(group, rng.random(total))
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(total) - np.repeat(starts, sizes)
    picked = maintained.members[order[rank < np.repeat(wanted, sizes)]]
    kept = wanted > 0
    return MaintainedSample(
        maintained.grouping_columns,
        maintained.rows,
        tuple(compress(maintained.keys, kept.tolist())),
        picked,
        wanted[kept],
        dict(maintained.populations),
    )


def _by_group_then_draw(group: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``np.lexsort((draws, group))`` for distinct ``draws``: sort by the
    draws, then stably by group.  ``group`` is unsigned and at most 16 bits
    wide for any snapshot of up to 65,536 groups, which numpy's stable sort
    orders by radix."""
    by_draw = np.argsort(draws)
    return by_draw[np.argsort(group[by_draw], kind="stable")]


#: the allocation each strategy name stands for
_BY_NAME = {
    "house": House,
    "senate": Senate,
    "basic_congress": BasicCongress,
    "congress": Congress,
}


def maintainer_for(
    strategy: Union[str, AllocationStrategy],
    schema: Schema,
    grouping_columns: Sequence[str],
    budget: int,
    rng: Optional[np.random.Generator] = None,
) -> CongressMaintainer:
    """The Section 6 maintainer for an allocation: Eq. 8 over its groupings.

    ``strategy`` is an allocation object with a ``groupings(G)`` method or
    one of the names ``house``, ``senate``, ``basic_congress`` and
    ``congress``, which stand for the default instances.
    """
    if isinstance(strategy, str):
        strategy = _BY_NAME.get(strategy.lower(), lambda: strategy)()
    groupings = getattr(strategy, "groupings", None)
    if groupings is None:
        raise ValueError(
            f"no maintainer for strategy {getattr(strategy, 'name', strategy)!r}"
            "; choose from house, senate, basic_congress, congress or an "
            "allocation with groupings"
        )
    return CongressMaintainer(
        schema, grouping_columns, budget, rng, groupings(grouping_columns)
    )


def construct_one_pass(
    strategy_name: str,
    source: Union[Table, RowStream],
    schema: Schema,
    grouping_columns: Sequence[str],
    budget: int,
    rng: Optional[np.random.Generator] = None,
    telemetry: Optional[Telemetry] = None,
) -> StratifiedSample:
    """Build a sample in one pass over ``source`` without a data cube.

    Runs the strategy's maintainer (:func:`maintainer_for`) with
    ``Y = budget`` and subsamples the result to exactly ``budget`` tuples
    (when it overshoots).

    Args:
        telemetry: optional :class:`~repro.obs.Telemetry`; when enabled,
            the stream and subsample phases get spans and the construction
            is recorded under ``aqua_onepass_construct_seconds`` /
            ``aqua_onepass_rows_total``.
    """
    rng = rng if rng is not None else np.random.default_rng()
    telemetry = telemetry if telemetry is not None else Telemetry.disabled()
    tracer = telemetry.tracer
    start = time.perf_counter()
    maintainer = maintainer_for(strategy_name, schema, grouping_columns, budget, rng)
    with tracer.span("onepass_stream", strategy=strategy_name) as stream_span:
        if isinstance(source, Table):
            maintainer.insert_table(source)
        else:
            maintainer.insert_many(source)
        stream_span.set(rows=maintainer.inserts_seen)
    with tracer.span("onepass_subsample", strategy=strategy_name):
        maintained = maintainer.snapshot()
        maintained = subsample_to_budget(maintained, budget, rng)
        sample = maintained.to_stratified()
    metrics = telemetry.metrics
    if metrics.enabled:
        metrics.histogram(
            "aqua_onepass_construct_seconds",
            "Wall time of one-pass sample construction.",
            ("strategy",),
        ).observe(time.perf_counter() - start, strategy=strategy_name)
        metrics.counter(
            "aqua_onepass_rows_total",
            "Stream rows consumed by one-pass construction.",
            ("strategy",),
        ).inc(maintainer.inserts_seen, strategy=strategy_name)
    return sample


def construct_from_cube(
    strategy: AllocationStrategy,
    cube: CountDataCube,
    table: Table,
    budget: float,
    rng: Optional[np.random.Generator] = None,
) -> StratifiedSample:
    """Build a sample in one pass given a precomputed count data cube.

    With the cube the exact per-group targets are known up front, so one
    draw without replacement per group materializes the sample.
    """
    counts = cube.finest_counts()
    allocation = strategy.allocate(counts, cube.grouping_columns, budget)
    return StratifiedSample.build(
        table, cube.grouping_columns, allocation.rounded(), rng=rng
    )
