"""The paper's Section 6 reservoir algorithms, kept as the reproduction.

The runtime maintains every allocation with one algorithm: Eq. 8 coins over
the allocation's own groupings (:class:`repro.maintenance.CongressMaintainer`
via :func:`repro.maintenance.maintainer_for`).  The reservoir algorithms the
paper gives for House, Senate and Basic Congress -- Vitter's Algorithm R and
X, Senate's lazy eviction and Theorem 6.1's delta samples -- live here, with
the row-tuple plumbing they use, so their tests keep checking them:

* ``tests/sampling/test_reservoir.py`` -- the reservoirs;
* ``test_house_senate_maint.py`` and ``test_basic_congress_maint.py`` --
  the three maintainers;
* ``test_refresh_identity.py::TestTupleMaintainers``, ``test_base.py`` and
  ``test_maintainer_properties.py`` -- their snapshots.

Reservoir sampling (Vitter, 1985)
---------------------------------

Two flavours are provided:

* :class:`ReservoirSampler` -- classic Algorithm R: the *i*-th arriving item
  replaces a random reservoir slot with probability ``k/i``.
* :class:`SkipReservoirSampler` -- Algorithm X: instead of drawing a random
  number per item, it predetermines how many arrivals to *skip* before the
  next replacement.  This is the "cost efficient ... based on predetermining
  how many insertions to skip over" variant the paper uses for per-group
  maintenance (Section 6).

Both maintain the invariant that after ``n`` arrivals the reservoir is a
uniform random sample (without replacement) of the ``n`` items seen.  Both
support *shrinking* the reservoir (random eviction), which preserves
uniformity -- the property Theorem 6.1 leans on ("it is preserved under
random eviction without insertion").

House and Senate
----------------

*House* is a single size-``X`` reservoir over the whole stream; per-group
populations are tracked on the side so the result can be treated as a
(post-stratified) stratified sample by the shared estimator machinery.

*Senate* keeps one reservoir per non-empty group of target size ``X/m``.
When a tuple of a never-seen group arrives, ``m`` grows, per-group targets
drop to ``X/(m+1)``, and over-target reservoirs are shrunk by uniform random
eviction -- which preserves per-group uniformity (Theorem 6.1's observation
that uniformity survives random eviction without insertion).

Basic Congress (Theorem 6.1)
----------------------------

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
relation); :func:`repro.maintenance.subsample_to_budget` trims it to a
fixed ``X``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain
from typing import (
    Dict, Generic, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.maintenance import base
from repro.sampling.groups import GroupKey, make_key

__all__ = [
    "BasicCongressMaintainer",
    "HouseMaintainer",
    "KeyExtractor",
    "MaintainedSample",
    "ReservoirSampler",
    "SampleMaintainer",
    "SenateMaintainer",
    "SkipReservoirSampler",
    "reservoir_sample",
]

# -- reservoirs ----------------------------------------------------------------

T = TypeVar("T")


class ReservoirSampler(Generic[T]):
    """Vitter's Algorithm R over arbitrary items."""

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._rng = rng if rng is not None else np.random.default_rng()
        self._items: List[T] = []
        self._seen = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        """Number of items offered so far."""
        return self._seen

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> List[T]:
        """A copy of the current reservoir contents."""
        return list(self._items)

    def offer(self, item: T) -> Optional[T]:
        """Offer one item.

        Returns:
            The item evicted to make room (possibly the offered item itself
            if it was not selected), or ``None`` while the reservoir is still
            filling or when capacity is zero and nothing was stored.
        """
        self._seen += 1
        if self._capacity == 0:
            return item
        if len(self._items) < self._capacity:
            self._items.append(item)
            return None
        slot = int(self._rng.integers(0, self._seen))
        if slot < self._capacity:
            evicted = self._items[slot]
            self._items[slot] = item
            return evicted
        return item

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.offer(item)

    def shrink_to(self, new_capacity: int) -> List[T]:
        """Reduce capacity, evicting uniformly-random members.

        Returns the evicted items.  Uniformity of the remaining sample is
        preserved (random eviction without insertion).
        """
        if new_capacity < 0:
            raise ValueError(f"new capacity must be >= 0, got {new_capacity}")
        self._capacity = new_capacity
        evicted: List[T] = []
        while len(self._items) > new_capacity:
            slot = int(self._rng.integers(0, len(self._items)))
            self._items[slot], self._items[-1] = self._items[-1], self._items[slot]
            evicted.append(self._items.pop())
        return evicted

    def grow_to(self, new_capacity: int) -> None:
        """Increase capacity.

        Note: the reservoir remains a uniform sample of the stream seen so
        far, but it cannot retroactively add past items; future offers fill
        the extra room only via the standard replacement rule.  Callers that
        need exact target sizes after growth must re-sample from the base
        data (the paper makes the same observation about the scale-down
        factor decreasing, Section 6).
        """
        if new_capacity < self._capacity:
            raise ValueError("use shrink_to to reduce capacity")
        self._capacity = new_capacity


class SkipReservoirSampler(Generic[T]):
    """Vitter's Algorithm X: skip-counting reservoir.

    Once the reservoir is full, draws the number of subsequent arrivals to
    skip before the next replacement, so the per-arrival cost is a counter
    decrement (the paper: "a counter counts down as new tuples are
    inserted").
    """

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._rng = rng if rng is not None else np.random.default_rng()
        self._items: List[T] = []
        self._seen = 0
        self._skip = -1  # arrivals to skip before next replacement; -1 = unset

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        return self._seen

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> List[T]:
        return list(self._items)

    def _draw_skip(self) -> int:
        """Draw the skip count for Algorithm X.

        The number of items skipped after seeing ``n`` items satisfies
        ``P(skip >= s) = prod_{j=1..s} (n + j - k) / (n + j)`` for reservoir
        size ``k``.  We invert by sequential search on a uniform variate,
        which is exact (this is Vitter's Algorithm X).
        """
        n = self._seen
        k = self._capacity
        u = float(self._rng.random())
        skip = 0
        quot = (n + 1 - k) / (n + 1)
        while quot > u:
            skip += 1
            quot *= (n + skip + 1 - k) / (n + skip + 1)
        return skip

    def offer(self, item: T) -> None:
        self._seen += 1
        if self._capacity == 0:
            return
        if len(self._items) < self._capacity:
            self._items.append(item)
            if len(self._items) == self._capacity:
                self._seen_at_fill = self._seen
                self._skip = self._draw_skip()
            return
        if self._skip > 0:
            self._skip -= 1
            return
        slot = int(self._rng.integers(0, self._capacity))
        self._items[slot] = item
        self._skip = self._draw_skip()

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.offer(item)

    def shrink_to(self, new_capacity: int) -> List[T]:
        """Reduce capacity via uniform random eviction (see Algorithm R)."""
        if new_capacity < 0:
            raise ValueError(f"new capacity must be >= 0, got {new_capacity}")
        self._capacity = new_capacity
        evicted: List[T] = []
        while len(self._items) > new_capacity:
            slot = int(self._rng.integers(0, len(self._items)))
            self._items[slot], self._items[-1] = self._items[-1], self._items[slot]
            evicted.append(self._items.pop())
        # The skip distribution depends on capacity; redraw.
        if self._items and len(self._items) == self._capacity:
            self._skip = self._draw_skip()
        return evicted


def reservoir_sample(
    items: Iterable[T], size: int, rng: Optional[np.random.Generator] = None
) -> List[T]:
    """One-shot uniform sample of ``size`` items from an iterable."""
    sampler: ReservoirSampler[T] = ReservoirSampler(size, rng)
    sampler.extend(items)
    return sampler.items()


# -- row-tuple plumbing --------------------------------------------------------


class KeyExtractor:
    """Extract the finest-partition group key from a row tuple."""

    def __init__(self, schema: Schema, grouping_columns: Sequence[str]):
        self._positions = tuple(
            schema.position(name) for name in grouping_columns
        )

    def __call__(self, row: Sequence) -> GroupKey:
        return make_key(tuple(row[i] for i in self._positions))


class MaintainedSample(base.MaintainedSample):
    """:class:`repro.maintenance.MaintainedSample` with the row-tuple
    constructor the reservoir maintainers snapshot through."""

    @classmethod
    def from_groups(
        cls,
        schema: Schema,
        grouping_columns: Sequence[str],
        rows_by_group: Mapping[GroupKey, Sequence[Tuple]],
        populations: Mapping[GroupKey, int],
    ) -> "MaintainedSample":
        """Pack per-group row tuples into columns, group after group."""
        rows = Table.from_rows(schema, chain.from_iterable(rows_by_group.values()))
        return cls(
            tuple(grouping_columns),
            rows,
            tuple(rows_by_group),
            np.arange(len(rows), dtype=np.int64),
            np.fromiter(
                map(len, rows_by_group.values()), np.int64, len(rows_by_group)
            ),
            dict(populations),
        )


class SampleMaintainer(ABC):
    """Interface for the incremental maintenance algorithms of Section 6."""

    def __init__(self, schema: Schema, grouping_columns: Sequence[str]):
        for name in grouping_columns:
            schema.column(name)
        self.schema = schema
        self.grouping_columns = tuple(grouping_columns)
        self._key_of = KeyExtractor(schema, grouping_columns)
        #: Rows consumed so far; :class:`~repro.aqua.guard.SynopsisHealth`
        #: reports it to show how far the maintainer tracks the stream.
        self.inserts_seen = 0

    @abstractmethod
    def insert(self, row: Sequence) -> None:
        """Process one newly-inserted relation tuple."""

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.insert(row)
            self.inserts_seen += 1

    def insert_table(self, table: Table) -> None:
        """Stream an entire table through the maintainer."""
        self.insert_many(table.iter_rows())

    @abstractmethod
    def snapshot(self) -> MaintainedSample:
        """Produce the current sample (without disturbing internal state)."""


# -- House and Senate ----------------------------------------------------------


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


# -- Basic Congress ------------------------------------------------------------


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
