"""Incremental maintenance of House and Senate samples (Section 6).

*House* is a single size-``X`` reservoir over the whole stream; per-group
populations are tracked on the side so the result can be treated as a
(post-stratified) stratified sample by the shared estimator machinery.

*Senate* keeps one reservoir per non-empty group of target size ``X/m``.
When a tuple of a never-seen group arrives, ``m`` grows, per-group targets
drop to ``X/(m+1)``, and over-target reservoirs are shrunk by uniform random
eviction -- which preserves per-group uniformity (Theorem 6.1's observation
that uniformity survives random eviction without insertion).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.schema import Schema
from ..sampling.groups import GroupKey
from ..sampling.reservoir import ReservoirSampler, SkipReservoirSampler
from .base import MaintainedSample, SampleMaintainer

__all__ = ["HouseMaintainer", "SenateMaintainer"]


class HouseMaintainer(SampleMaintainer):
    """Classic uniform reservoir of the whole relation."""

    def __init__(
        self,
        schema: Schema,
        grouping_columns: Sequence[str],
        capacity: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(schema, grouping_columns)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._rng = rng if rng is not None else np.random.default_rng()
        self._reservoir: SkipReservoirSampler = SkipReservoirSampler(
            capacity, self._rng
        )
        self._populations: Dict[GroupKey, int] = {}

    @property
    def seen(self) -> int:
        return self._reservoir.seen

    def insert(self, row: Sequence) -> None:
        key = self._key_of(row)
        self._populations[key] = self._populations.get(key, 0) + 1
        self._reservoir.offer(tuple(row))

    def snapshot(self) -> MaintainedSample:
        rows_by_group: Dict[GroupKey, List[Tuple]] = {}
        for row in self._reservoir.items():
            rows_by_group.setdefault(self._key_of(row), []).append(row)
        return MaintainedSample.from_groups(
            self.schema, self.grouping_columns, rows_by_group, self._populations
        )


class SenateMaintainer(SampleMaintainer):
    """Per-group reservoirs, retargeted to ``X/m`` as groups appear."""

    def __init__(
        self,
        schema: Schema,
        grouping_columns: Sequence[str],
        capacity: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(schema, grouping_columns)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._rng = rng if rng is not None else np.random.default_rng()
        self._reservoirs: Dict[GroupKey, ReservoirSampler] = {}
        self._populations: Dict[GroupKey, int] = {}

    @property
    def num_groups(self) -> int:
        return len(self._reservoirs)

    def _retarget(self) -> None:
        """Drop per-group targets to ``X // m`` after a new group appears.

        Only ever *shrinks* existing reservoirs (uniform random eviction
        preserves uniformity); growing a partially-drained reservoir would
        bias it toward future arrivals, so freed space is simply not
        reclaimed until groups churn -- the paper's lazy-eviction policy.
        """
        m = len(self._reservoirs)
        if m == 0:
            return
        target = self._capacity // m
        for sampler in self._reservoirs.values():
            if sampler.capacity > target:
                sampler.shrink_to(target)

    def insert(self, row: Sequence) -> None:
        key = self._key_of(row)
        self._populations[key] = self._populations.get(key, 0) + 1
        reservoir = self._reservoirs.get(key)
        if reservoir is None:
            target = self._capacity // (len(self._reservoirs) + 1)
            reservoir = ReservoirSampler(target, self._rng)
            self._reservoirs[key] = reservoir
            self._retarget()
        reservoir.offer(tuple(row))

    def snapshot(self) -> MaintainedSample:
        rows_by_group = {
            key: [tuple(row) for row in sampler.items()]
            for key, sampler in self._reservoirs.items()
        }
        return MaintainedSample.from_groups(
            self.schema, self.grouping_columns, rows_by_group, self._populations
        )
