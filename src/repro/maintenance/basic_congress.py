"""Incremental maintenance of Basic Congress samples (Section 6, Thm 6.1).

State: a single reservoir of size ``Y`` over the whole relation, per-group
counts ``x_g`` of reservoir members, and per-group *delta samples*
``Δ_g`` -- uniform samples holding the Senate top-up
``max(0, Y/m - x_g)`` extra tuples for under-represented groups.

On inserting tuple ``τ`` (paper's four cases):

1. ``τ`` not selected for the reservoir: usually nothing (but see 4).
2. Selected, evicting ``τ'`` of the *same* group: nothing else.
3. Selected, evicting ``τ'`` of another group ``g'``: increment ``x_g`` and
   evict one random ``Δ_g`` member if any; decrement ``x_{g'}`` and recycle
   ``τ'`` into ``Δ_{g'}`` if ``x_{g'}`` fell below ``Y/m``.
4. Small groups (``n_g < Y/m``): tuples not selected for the reservoir go
   straight into ``Δ_g`` (so tiny groups are fully retained).  When a brand
   new group arrives, ``m`` grows and delta samples are evicted down so
   ``|Δ_h| + x_h >= Y/(m+1)`` is not over-satisfied.

Theorem 6.1: every ``Δ_g`` remains a uniform random sample of group ``g``,
because evicted reservoir tuples are themselves uniform picks and direct
adds happen only while the group is fully enumerated.

The maintained size floats with the data distribution (the paper's point:
a *fixed* total size cannot be maintained without touching the base
relation); :mod:`repro.maintenance.onepass` subsamples to a fixed ``X``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.schema import Schema
from ..sampling.groups import GroupKey
from ..sampling.reservoir import ReservoirSampler
from .base import MaintainedSample, SampleMaintainer

__all__ = ["BasicCongressMaintainer"]


class BasicCongressMaintainer(SampleMaintainer):
    """Reservoir + per-group delta samples (the paper's algorithm)."""

    def __init__(
        self,
        schema: Schema,
        grouping_columns: Sequence[str],
        budget: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(schema, grouping_columns)
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._budget = budget  # the paper's Y
        self._rng = rng if rng is not None else np.random.default_rng()
        # Reservoir entries are (serial, row) so identical rows stay distinct.
        self._reservoir: ReservoirSampler = ReservoirSampler(budget, self._rng)
        self._serial = 0
        self._x: Dict[GroupKey, int] = {}  # reservoir members per group
        self._delta: Dict[GroupKey, List[Tuple]] = {}
        self._populations: Dict[GroupKey, int] = {}

    @property
    def budget(self) -> int:
        return self._budget

    @property
    def num_groups(self) -> int:
        return len(self._populations)

    def _senate_target(self) -> float:
        m = max(1, len(self._populations))
        return self._budget / m

    def _evict_random_delta(self, key: GroupKey) -> None:
        members = self._delta.get(key)
        if members:
            slot = int(self._rng.integers(0, len(members)))
            members[slot] = members[-1]
            members.pop()

    def _trim_delta_to_target(self, key: GroupKey, target: float) -> None:
        """Restore ``|Δ_g| <= max(0, Y/m - x_g)`` after ``x_g`` grew.

        Only evicts when the group is *above* its invariant size -- a group
        still in deficit (e.g. fully enumerated because ``n_g < Y/m``) must
        keep every tuple, otherwise small groups leak samples over time.
        """
        members = self._delta.get(key)
        if not members:
            return
        allowed = max(0.0, target - self._x.get(key, 0))
        while members and len(members) > allowed:
            self._evict_random_delta(key)

    def _trim_deltas_for_new_group(self) -> None:
        """Shrink delta samples after ``m`` grew (paper's lazy eviction)."""
        target = self._senate_target()
        for key, members in self._delta.items():
            allowed = max(0, int(np.ceil(target)) - self._x.get(key, 0))
            while len(members) > allowed:
                self._evict_random_delta(key)

    def insert(self, row: Sequence) -> None:
        row = tuple(row)
        key = self._key_of(row)
        is_new_group = key not in self._populations
        self._populations[key] = self._populations.get(key, 0) + 1
        if is_new_group:
            # m grows; existing groups' Senate share shrinks.
            self._trim_deltas_for_new_group()

        target = self._senate_target()
        self._serial += 1
        entry = (self._serial, key, row)
        evicted = self._reservoir.offer(entry)

        if evicted is entry:
            # Case 1 / 4: not selected for the reservoir.
            if self._populations[key] <= target:
                # Group is still smaller than its Senate share: retain every
                # tuple (reservoir members + delta == whole group).
                self._delta.setdefault(key, []).append(row)
            return

        # Selected for the reservoir.
        self._x[key] = self._x.get(key, 0) + 1
        if evicted is None:
            # Reservoir still filling; no eviction side to handle.
            self._trim_delta_to_target(key, target)
            return

        __, evicted_key, evicted_row = evicted
        if evicted_key == key:
            # Case 2: same group in, same group out; x_g net unchanged.
            self._x[key] -= 1
            return

        # Case 3: cross-group replacement.
        self._trim_delta_to_target(key, target)
        self._x[evicted_key] = self._x.get(evicted_key, 0) - 1
        if self._x[evicted_key] < target:
            delta = self._delta.setdefault(evicted_key, [])
            if len(delta) + self._x[evicted_key] < target:
                delta.append(evicted_row)

    def snapshot(self) -> MaintainedSample:
        rows_by_group: Dict[GroupKey, List[Tuple]] = {}
        for __, key, row in self._reservoir.items():
            rows_by_group.setdefault(key, []).append(row)
        for key, members in self._delta.items():
            if members:
                rows_by_group.setdefault(key, []).extend(members)
        return MaintainedSample.from_groups(
            self.schema, self.grouping_columns, rows_by_group, self._populations
        )

    # -- introspection for tests ---------------------------------------------

    def reservoir_count(self, key: GroupKey) -> int:
        return self._x.get(key, 0)

    def delta_count(self, key: GroupKey) -> int:
        return len(self._delta.get(key, []))
