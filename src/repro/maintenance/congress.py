"""Incremental maintenance of Congress samples via Equation 8 (Section 6).

Invariant: every tuple ``τ`` of the relation is in the sample with
probability ``p(τ) = min(1, max_{T ⊆ G} Y / (m_T * n_{g(τ,T)}))``, where the
``m_T`` and ``n_h`` counters live in a :class:`CountDataCube`.

Because both ``m_T`` and ``n_h`` only grow under insertions, ``p(τ)`` only
*decreases* over time, so the invariant can be restored without touching the
base relation: when a group's selection probability has dropped from ``p``
to ``q`` since its members were last reconciled, each member survives an
independent coin flip with probability ``q/p`` (the [GM98] process the paper
cites).  All tuples of the same finest group share one probability, so we
store a single ``p`` per group and *settle* groups lazily:

* the inserted tuple's own group is settled on every insert (cheap: its
  probability was just recomputed anyway);
* all groups are settled in :meth:`snapshot`, at once: the cube gives every
  group's probability in one array expression and the groups whose
  probability dropped are thinned from one draw
  (:func:`~repro.sampling.bernoulli.thin_groups`).

A whole table needs no lazy thinning: :meth:`CongressMaintainer.insert_table`
counts it first ("given a data cube of the counts ... any of our biased
samples can be constructed in one pass") and flips one coin per row at its
group's final probability.  Streaming the same rows accepts row ``i`` at
``p_i`` and thins it by ratios whose product is ``p_final / p_i``, so both
keep each row independently with probability ``p_final``; they draw
different random numbers.

Per-insert bookkeeping is ``O(2^|G|)`` counter updates, exactly as the paper
notes.  Sampled rows live in a row store: columns, plus a tail of the
tuples accepted one at a time since the last :meth:`snapshot`, which turns
the tail into columns.  Groups hold row ids into it; thinned rows stay
until they outnumber the live ones, when the store is compacted.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.schema import Schema
from ..engine.table import Table
from ..sampling.bernoulli import thin_groups, thin_to_probability
from ..sampling.groups import GroupKey, finest_group_ids
from .base import MaintainedSample, SampleMaintainer
from .datacube import CountDataCube

__all__ = ["CongressMaintainer"]


class CongressMaintainer(SampleMaintainer):
    """Probability-based Congress maintenance (Equation 8)."""

    def __init__(
        self,
        schema: Schema,
        grouping_columns: Sequence[str],
        budget: float,
        rng: Optional[np.random.Generator] = None,
        settle_every: int = 0,
    ):
        """Args:
        schema: relation schema.
        grouping_columns: the stratification columns ``G``.
        budget: the paper's ``Y`` -- the target (pre-scale-down) size knob.
        rng: numpy generator.
        settle_every: if > 0, settle *all* groups each time this many
            inserts have accumulated (bounds staleness between snapshots;
            0 = settle only the touched group, plus at snapshot time).
        """
        super().__init__(schema, grouping_columns)
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._budget = float(budget)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._cube = CountDataCube(grouping_columns)
        #: probability each group's members were kept at, by dense group id
        self._stored_p: List[float] = []
        #: row ids of each group's members, groups in first-accepted order
        self._members: Dict[int, List[int]] = {}
        self._store = Table.empty(schema)
        self._tail: List[Tuple] = []
        self._dead = 0  # store and tail rows no group holds any more
        self._settle_every = settle_every
        self._since_settle = 0

    @property
    def budget(self) -> float:
        return self._budget

    @property
    def cube(self) -> CountDataCube:
        return self._cube

    def current_probability(self, key: GroupKey) -> float:
        """The Eq. 8 selection probability for tuples of group ``key`` now."""
        return self._cube.selection_probability(tuple(key), self._budget)

    def _settle(self, gid: int) -> float:
        """Re-flip group members down to the current probability.

        Returns the (settled) current probability.  Members were uniformly
        retained at the stored probability ``p >= q``; after thinning each
        survives with marginal probability exactly ``q``.
        """
        current = self._cube.group_probability(gid, self._budget)
        if gid == len(self._stored_p):
            self._stored_p.append(current)
            return current
        stored = self._stored_p[gid]
        if current < stored - 1e-15:
            members = self._members.get(gid)
            if members:
                kept = thin_to_probability(members, stored, current, self._rng)
                self._dead += len(members) - len(kept)
                self._members[gid] = kept
            self._stored_p[gid] = current
        return self._stored_p[gid]

    def settle_all(self) -> None:
        """Reconcile every group with the current counters.

        Groups are thinned in first-seen order from one draw, the stream
        settling them one at a time would take.
        """
        current = self._cube.selection_probabilities(self._budget)
        stored = np.array(self._stored_p)
        dropped = np.flatnonzero(current < stored - 1e-15)
        if len(dropped):
            thinned = [g for g in dropped.tolist() if self._members.get(g)]
            kept = thin_groups(
                [self._members[g] for g in thinned],
                stored[thinned],
                current[thinned],
                self._rng,
            )
            for gid, members in zip(thinned, kept):
                self._dead += len(self._members[gid]) - len(members)
                self._members[gid] = members
            stored[dropped] = current[dropped]
            self._stored_p = stored.tolist()
        self._since_settle = 0

    def _offer(self, key: GroupKey, row_id: int) -> bool:
        """Count one tuple of group ``key`` and flip its Eq. 8 coin; an
        accepted tuple joins its group as row ``row_id``."""
        gid = self._cube.observe(key)
        probability = self._settle(gid)  # may thin: draws before the coin
        accepted = self._rng.random() < probability
        if accepted:
            self._members.setdefault(gid, []).append(row_id)
        self._since_settle += 1
        if self._settle_every and self._since_settle >= self._settle_every:
            self.settle_all()
        return accepted

    def insert(self, row: Sequence) -> None:
        row = tuple(row)
        if self._offer(self._key_of(row), len(self._store) + len(self._tail)):
            self._tail.append(row)
        if 2 * self._dead > len(self._store) + len(self._tail):
            self._row_store()

    def insert_table(self, table: Table) -> None:
        """Load a whole table at once: count it, then flip one coin per row.

        Every count is known up front, so each row is drawn directly at its
        group's final Eq. 8 probability -- the probability the stream would
        thin it down to, one row at a time.  The table's finest groups come
        from one ``factorize`` and join the cube in first-seen row order;
        groups already held are thinned to their new probabilities
        (:meth:`settle_all`); then one ``rng.random(n)``, in row order,
        accepts row ``i`` iff its number is below its group's probability.
        Accepted rows join their groups in row order, groups in dense-id
        order, and are appended with one ``take``.
        """
        ids, keys = finest_group_ids(table, self.grouping_columns)
        present, first_row = np.unique(ids, return_index=True)
        seen = present[np.argsort(first_row)]
        counts = np.bincount(ids, minlength=len(keys))
        dense = np.zeros(len(keys), dtype=np.int64)
        dense[seen] = self._cube.observe_counts(
            {keys[g]: int(counts[g]) for g in seen.tolist()}
        )
        probabilities = self._cube.selection_probabilities(self._budget)
        self._stored_p.extend(probabilities[len(self._stored_p) :].tolist())
        self.settle_all()
        row_gid = dense[ids]
        accepted = np.flatnonzero(
            self._rng.random(table.num_rows) < probabilities[row_gid]
        )
        first_id = len(self._row_store())
        gids = row_gid[accepted]
        order = np.argsort(gids, kind="stable")
        groups, starts = np.unique(gids[order], return_index=True)
        row_ids = (order + first_id).tolist()
        ends = [*starts[1:].tolist(), len(row_ids)]
        for gid, lo, hi in zip(groups.tolist(), starts.tolist(), ends):
            self._members.setdefault(gid, []).extend(row_ids[lo:hi])
        self._store = self._store.concat(table.take(accepted))
        self.inserts_seen += table.num_rows
        self._row_store()

    def _row_store(self) -> Table:
        """The row store as columns: the tail appended, and dead rows
        dropped (row ids renumbered in order) once they outnumber the live
        ones."""
        if self._tail:
            tail = Table.from_rows(self.schema, self._tail)
            self._store = self._store.concat(tail)
            self._tail = []
        if 2 * self._dead > len(self._store):
            groups = list(self._members)
            sizes = [len(self._members[g]) for g in groups]
            ids = np.fromiter(
                chain.from_iterable(self._members.values()),
                np.int64,
                sum(sizes),
            )
            live = np.zeros(len(self._store), dtype=bool)
            live[ids] = True
            renumbered = (np.cumsum(live) - 1)[ids].tolist()
            self._store = self._store.filter(live)
            cursor = 0
            for gid, size in zip(groups, sizes):
                self._members[gid] = renumbered[cursor : cursor + size]
                cursor += size
            self._dead = 0
        return self._store

    def snapshot(self) -> MaintainedSample:
        """The settled sample, columnar: groups holding members in
        first-accepted order, their row ids flattened into one array."""
        self.settle_all()
        rows = self._row_store()
        groups = self._members
        sizes = np.fromiter(map(len, groups.values()), np.int64, len(groups))
        held = sizes > 0
        keys = map(self._cube.group_keys.__getitem__, groups)
        return MaintainedSample(
            self.grouping_columns,
            rows,
            tuple(compress(keys, held.tolist())),
            np.fromiter(
                chain.from_iterable(groups.values()), np.int64, int(sizes.sum())
            ),
            sizes[held],
            self._cube.finest_counts(),
        )

    # -- introspection ---------------------------------------------------

    def expected_sizes(self) -> Dict[GroupKey, float]:
        """Current ``n_g * p_g`` per group (the pre-scale-down targets)."""
        out = {}
        for key, n_g in self._cube.finest_counts().items():
            out[key] = n_g * self.current_probability(key)
        return out
