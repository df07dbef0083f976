"""Incremental maintenance of every allocation via Equation 8 (Section 6).

Invariant: every tuple ``τ`` of the relation is in the sample with
probability ``p(τ) = min(1, max_{T ∈ 𝒯} Y / (m_T * n_{g(τ,T)}))``, where the
``m_T`` and ``n_h`` counters live in a :class:`CountDataCube`.  The set of
groupings ``𝒯`` picks the allocation: ``{∅}`` is House (``p = Y/|R|``),
``{G}`` Senate (``Y/m`` per group, capped at ``n_g``), ``{∅, G}`` Basic
Congress before its scale-down and every ``T ⊆ G`` Congress; each
allocation in :mod:`repro.core` names its own through ``groupings(G)``.

Because both ``m_T`` and ``n_h`` only grow under insertions, ``p(τ)`` only
*decreases* over time, so the invariant can be restored without touching the
base relation: when a group's selection probability has dropped from ``p``
to ``q`` since its members were last reconciled, each member survives an
independent coin flip with probability ``q/p`` (the [GM98] process the paper
cites).  All tuples of the same finest group share one probability, so we
store a single ``p`` per group.

Rows arrive in *loads*.  "Given a data cube of the counts ... any of our
biased samples can be constructed in one pass": a load counts its rows
first, thins every held group whose probability dropped from one draw
(groups in dense-id order), then flips one coin per row, in row order, at
its group's final probability.  :meth:`CongressMaintainer.insert_table` is
one load; :meth:`CongressMaintainer.insert` only buffers its row, and every
reader (:meth:`~CongressMaintainer.snapshot`, ``insert_table``,
:meth:`~CongressMaintainer.settle_all`, ``cube``, ``current_probability``,
``expected_sizes``) first loads the buffered rows as one table.  Streaming
the same rows one at a time would accept row ``i`` at ``p_i`` and thin it by
ratios whose product is ``p_final / p_i``, so both keep each row
independently with probability ``p_final``; they draw different random
numbers.

Sampled rows live in a row store of columns.  Each group's members are row
ids into it, kept as one flat array, group after group in first-accepted
order; thinned rows stay in the store until they outnumber the live ones,
when it is compacted.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.schema import Schema
from ..engine.table import Table
from ..sampling.groups import GroupKey, finest_group_ids, make_key
from ..sampling.stratified import segment_positions
from .base import MaintainedSample
from .datacube import CountDataCube

__all__ = ["CongressMaintainer"]


class CongressMaintainer:
    """Probability-based maintenance (Equation 8) over groupings ``𝒯``."""

    def __init__(
        self,
        schema: Schema,
        grouping_columns: Sequence[str],
        budget: float,
        rng: Optional[np.random.Generator] = None,
        groupings: Optional[Iterable[Sequence[str]]] = None,
    ):
        """Args:
        schema: relation schema.
        grouping_columns: the stratification columns ``G``.
        budget: the paper's ``Y`` -- the target (pre-scale-down) size knob.
        rng: numpy generator.
        groupings: Eq. 8's ``𝒯`` (every ``T ⊆ G`` by default, which is
            Congress).
        """
        for name in grouping_columns:
            schema.column(name)
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.schema = schema
        self.grouping_columns = tuple(grouping_columns)
        #: Rows consumed so far; :class:`~repro.aqua.guard.SynopsisHealth`
        #: reports it to show how far the maintainer tracks the stream.
        self.inserts_seen = 0
        self._budget = float(budget)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._cube = CountDataCube(grouping_columns, groupings)
        #: probability each group's members were kept at, by dense group id
        self._stored_p = np.empty(0)
        # The groups that have held members, as dense ids in first-accepted
        # order; each one's member count (0 once thinned out); the members'
        # row ids in the store, group after group; and each dense id's
        # place among the groups (-1: never held).
        self._groups = np.empty(0, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.int64)
        self._members = np.empty(0, dtype=np.int64)
        self._slot = np.empty(0, dtype=np.int64)
        self._store = Table.empty(schema)
        self._dead = 0  # store rows no group holds any more
        #: rows inserted since the last load, in insertion order
        self._pending: List[Tuple] = []
        # a row's grouping values as they came, as a tuple (an itemgetter
        # of one position returns the bare value)
        positions = [schema.position(name) for name in self.grouping_columns]
        self._raw_key: Callable = (
            itemgetter(*positions)
            if len(positions) > 1
            else lambda row: tuple(map(row.__getitem__, positions))
        )

    @property
    def budget(self) -> float:
        return self._budget

    @property
    def cube(self) -> CountDataCube:
        self._drain()
        return self._cube

    def current_probability(self, key: GroupKey) -> float:
        """The Eq. 8 selection probability for tuples of group ``key`` now."""
        self._drain()
        return self._cube.selection_probability(tuple(key), self._budget)

    def settle_all(self) -> None:
        """Reconcile every group with the counters: load the buffered rows.

        Every load settles every group against the counts it leaves, so
        nothing is left to settle after it.
        """
        self._drain()

    def insert(self, row: Sequence) -> None:
        """Buffer one tuple; the next reader loads it."""
        self._pending.append(tuple(row))
        self.inserts_seen += 1

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        """Buffer tuples in order; the next reader loads them with the
        rest."""
        pending = self._pending
        before = len(pending)
        pending.extend(map(tuple, rows))
        self.inserts_seen += len(pending) - before

    def insert_table(self, table: Table) -> None:
        """Load a whole table at once: count it, then flip one coin per row.

        Buffered inserts are loaded first, as their own load.  The table's
        finest groups come from one ``factorize`` and join the cube in
        first-seen row order; then :meth:`_load` counts, settles and flips.
        """
        self._drain()
        ids, keys = finest_group_ids(table, self.grouping_columns)
        present, first_row = np.unique(ids, return_index=True)
        seen = present[np.argsort(first_row)]
        dense = np.zeros(len(keys), dtype=np.int64)
        dense[seen] = self._cube.register([keys[g] for g in seen.tolist()])
        self._load(dense[ids], table.take)
        self.inserts_seen += table.num_rows

    def _drain(self) -> None:
        """Load the buffered inserts as one table, in insertion order.

        Each row's grouping values are read with one ``itemgetter`` and
        normalized once per distinct value the cube does not know; the
        groups join the cube in first-seen row order, as
        :meth:`insert_table`'s do.
        """
        rows = self._pending
        if not rows:
            return
        self._pending = []
        raw_ids: Dict = {}
        row_raw = [
            raw_ids.setdefault(raw, len(raw_ids))
            for raw in map(self._raw_key, rows)
        ]
        gids = self._cube.register(raw_ids, normalize=make_key)
        self._load(
            gids[row_raw],
            lambda at: Table.from_rows(
                self.schema, map(rows.__getitem__, at.tolist())
            ),
        )

    def _load(
        self, row_gid: np.ndarray, take: Callable[[np.ndarray], Table]
    ) -> None:
        """One load of rows in (registered) dense groups ``row_gid``.

        The rows are counted into the cube, every group's Eq. 8 probability
        is computed once, held groups are thinned to theirs
        (:meth:`_settle`), then one ``rng.random(n)``, in row order, accepts
        row ``i`` iff its number is below its group's probability.  Accepted
        rows join their groups in row order (:meth:`_join`), and
        ``take(accepted)`` appends them to the row store.
        """
        counts = np.bincount(
            row_gid, minlength=self._cube.num_groups(self.grouping_columns)
        )
        present = np.flatnonzero(counts)
        self._cube.add(present, counts[present])
        probabilities = self._cube.selection_probabilities(self._budget)
        self._settle(probabilities)
        accepted = np.flatnonzero(
            self._rng.random(len(row_gid)) < probabilities[row_gid]
        )
        self._join(
            row_gid[accepted], len(self._store) + np.arange(len(accepted))
        )
        if len(accepted):
            self._store = self._store.concat(take(accepted))
        if 2 * self._dead > len(self._store):
            self._compact()

    def _settle(self, current: np.ndarray) -> None:
        """Thin every held group down to its probability in ``current``.

        The groups whose probability dropped are thinned in dense-id order
        from one draw, one number per member in member order: the stream
        one :func:`~repro.sampling.bernoulli.thin_to_probability` call per
        group would take.  Groups new to the cube are stored at their
        probability.
        """
        stored = self._stored_p
        dropped = np.flatnonzero(current[: len(stored)] < stored - 1e-15)
        grown = len(current) - len(stored)
        self._slot = np.concatenate([self._slot, np.full(grown, -1)])
        slots = self._slot[dropped]
        slots = slots[slots >= 0]
        slots = slots[self._sizes[slots] > 0]
        if len(slots):
            gids, sizes = self._groups[slots], self._sizes[slots]
            starts = np.cumsum(self._sizes) - self._sizes
            at = segment_positions(starts[slots], sizes)
            kept = self._rng.random(len(at)) < np.repeat(
                current[gids] / stored[gids], sizes
            )
            self._dead += len(at) - int(np.count_nonzero(kept))
            keep = np.ones(len(self._members), dtype=bool)
            keep[at] = kept
            self._members = self._members[keep]
            self._sizes = self._sizes.copy()
            self._sizes[slots] = np.add.reduceat(
                kept, np.cumsum(sizes) - sizes, dtype=np.int64
            )
        stored = np.concatenate([stored, current[len(stored) :]])
        stored[dropped] = current[dropped]
        self._stored_p = stored

    def _join(self, gids: np.ndarray, row_ids: np.ndarray) -> None:
        """Append accepted rows ``row_ids`` (row order) to their groups
        ``gids``; groups holding members for the first time follow the
        others, in dense-id order."""
        new = np.unique(gids[self._slot[gids] < 0])
        self._slot[new] = len(self._groups) + np.arange(len(new))
        self._groups = np.concatenate([self._groups, new])
        sizes = np.concatenate([self._sizes, np.zeros(len(new), np.int64)])
        slots = self._slot[gids]
        order = np.argsort(slots, kind="stable")
        self._members = np.insert(
            self._members, np.cumsum(sizes)[slots[order]], row_ids[order]
        )
        self._sizes = sizes + np.bincount(slots, minlength=len(sizes))

    def _compact(self) -> None:
        """Drop the dead rows from the store, renumbering row ids in order."""
        live = np.zeros(len(self._store), dtype=bool)
        live[self._members] = True
        self._members = (np.cumsum(live) - 1)[self._members]
        self._store = self._store.filter(live)
        self._dead = 0

    def snapshot(self) -> MaintainedSample:
        """The settled sample, columnar: groups holding members in
        first-accepted order, their row ids in one array."""
        self._drain()
        held = self._sizes > 0
        keys = self._cube.group_keys
        return MaintainedSample(
            self.grouping_columns,
            self._store,
            tuple(map(keys.__getitem__, self._groups[held].tolist())),
            self._members,
            self._sizes[held],
            self._cube.finest_counts(),
        )

    # -- introspection ---------------------------------------------------

    def expected_sizes(self) -> Dict[GroupKey, float]:
        """Current ``n_g * p_g`` per group (the pre-scale-down targets)."""
        out = {}
        for key, n_g in self.cube.finest_counts().items():
            out[key] = n_g * self.current_probability(key)
        return out
