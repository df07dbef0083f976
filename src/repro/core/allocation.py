"""Allocation framework shared by House / Senate / Basic Congress / Congress.

An *allocation strategy* maps the finest-partition group counts ``n_g`` of a
relation and a space budget ``X`` (in tuples) to a fractional expected sample
size per finest group (Section 4 of the paper).  The fractional allocation is
wrapped in an :class:`Allocation`, which knows how to round itself to
integers and report its scale-down factor.

Strategies operate on plain count dictionaries so that the same code path
serves (a) direct construction from a table, (b) construction from a count
data cube, and (c) re-allocation during incremental maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Protocol, Sequence, Tuple

from ..engine.table import Table
from ..sampling.groups import GroupKey, group_counts, group_members
from ..sampling.rounding import largest_remainder_round
from ..sampling.stratified import StratifiedSample

import numpy as np

__all__ = ["Allocation", "AllocationStrategy", "allocate_from_table", "build_sample"]


@dataclass(frozen=True)
class Allocation:
    """The result of running an allocation strategy.

    Attributes:
        strategy: name of the strategy that produced it.
        grouping_columns: the stratification columns ``G``.
        budget: the space budget ``X`` in tuples.
        fractional: expected sample size per finest group (sums to ~``X``
            unless the budget exceeds the population).
        populations: tuple count ``n_g`` per finest group.
        pre_scaling: the per-group targets *before* scaling down to ``X``
            (the "before scaling" columns of Figure 5); equals ``fractional``
            for strategies that need no scaling.
    """

    strategy: str
    grouping_columns: Tuple[str, ...]
    budget: float
    fractional: Dict[GroupKey, float]
    populations: Dict[GroupKey, int]
    pre_scaling: Dict[GroupKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = set(self.fractional) - set(self.populations)
        if missing:
            raise ValueError(f"allocation for unknown groups: {sorted(missing)}")

    @property
    def total_fractional(self) -> float:
        return float(sum(self.fractional.values()))

    @property
    def scale_down_factor(self) -> float:
        """The ``f`` of Equation 6: budget over pre-scaling total (<= 1)."""
        pre = self.pre_scaling or self.fractional
        total = float(sum(pre.values()))
        if total == 0:
            return 1.0
        return min(1.0, self.budget / total)

    def rounded(self) -> Dict[GroupKey, int]:
        """Integer per-group sizes: largest-remainder, capped at ``n_g``.

        The integer total equals ``min(round(budget), total population)``.
        """
        target = min(int(round(self.budget)), sum(self.populations.values()))
        capped = {
            key: min(value, float(self.populations[key]))
            for key, value in self.fractional.items()
        }
        return largest_remainder_round(capped, total=target, caps=self.populations)

    def expected_size(self, key: GroupKey) -> float:
        return self.fractional.get(key, 0.0)


class AllocationStrategy(Protocol):
    """Protocol implemented by House, Senate, Basic Congress, Congress."""

    name: str

    def allocate(
        self,
        counts: Mapping[GroupKey, int],
        grouping_columns: Sequence[str],
        budget: float,
    ) -> Allocation:
        """Compute the fractional allocation for the given group counts."""
        ...


def _validate(counts: Mapping[GroupKey, int], budget: float) -> None:
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not counts:
        raise ValueError("cannot allocate over zero groups")
    negatives = [k for k, v in counts.items() if v < 0]
    if negatives:
        raise ValueError(f"negative group counts: {negatives}")
    zeros = [k for k, v in counts.items() if v == 0]
    if zeros:
        raise ValueError(
            f"empty groups are not part of the finest partition: {zeros}"
        )


def allocate_from_table(
    strategy: AllocationStrategy,
    table: Table,
    grouping_columns: Sequence[str],
    budget: float,
) -> Allocation:
    """Convenience: compute group counts from ``table`` and allocate."""
    counts = group_counts(table, grouping_columns)
    return strategy.allocate(counts, grouping_columns, budget)


def build_sample(
    strategy: AllocationStrategy,
    table: Table,
    grouping_columns: Sequence[str],
    budget: float,
    rng: Optional[np.random.Generator] = None,
    members: Optional[Mapping[GroupKey, np.ndarray]] = None,
) -> StratifiedSample:
    """End-to-end: count, allocate and draw the stratified sample.

    One membership pass over ``table`` serves all three steps: each finest
    group's row list gives its count ``n_g`` for the allocation and is the
    population its stratum is drawn from.  ``members`` is that pass's
    result (:func:`repro.sampling.groups.group_members`) when the caller
    shares it between samples over the same grouping, or runs it
    partition-parallel.
    """
    if members is None:
        members = group_members(table, grouping_columns)
    counts = {key: len(rows) for key, rows in members.items()}
    allocation = strategy.allocate(counts, grouping_columns, budget)
    return StratifiedSample.build(
        table, grouping_columns, allocation.rounded(), rng=rng, members=members
    )
