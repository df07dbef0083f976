"""Count data cube over the groupings of the grouping attributes.

Section 6 of the paper: "Given a data cube of the counts of each group in
all possible groupings, the target sizes are known, and any of our biased
samples can be constructed in one pass."  This module provides that cube --
for every grouping ``T`` in a set ``𝒯`` it tracks ``m_T`` (the number of
non-empty groups under ``T``) and ``n_h`` for each group ``h`` --
maintained incrementally, which is exactly the bookkeeping the Eq. 8
maintainer needs.  ``𝒯`` is the allocation's: ``{∅}`` for House, ``{G}``
for Senate, ``{∅, G}`` for Basic Congress and every ``T ⊆ G`` (the
default) for Congress.  ``G`` itself is always counted, since the finest
groups' populations come from it, so a tuple costs ``|𝒯|`` counter updates,
or ``|𝒯| + 1`` when ``G`` is not in ``𝒯``.

Each finest group gets a dense id the first time it is seen.  Per grouping
``T`` the cube keeps the ``T``-groups (its *cells*) in first-seen order, the
cell of every finest group and each cell's count as arrays, so recording a
batch of tuples is one indexed add per grouping (:meth:`CountDataCube.add`)
and Eq. 8 for every finest group at once is one array expression per
grouping (:meth:`CountDataCube.selection_probabilities`).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..engine.table import Table
from ..sampling.groups import GroupKey, all_groupings, group_counts

__all__ = ["CountDataCube"]


class CountDataCube:
    """Group counts for every grouping ``T`` in ``𝒯``, incrementally updated.

    Args:
        grouping_columns: the grouping attributes ``G``.
        groupings: Eq. 8's ``𝒯``, each a tuple of columns of ``G``; every
            ``T ⊆ G``, in :func:`all_groupings` order, by default.
    """

    def __init__(
        self,
        grouping_columns: Sequence[str],
        groupings: Optional[Iterable[Sequence[str]]] = None,
    ):
        self._grouping_columns = tuple(grouping_columns)
        if groupings is None:
            groupings = all_groupings(self._grouping_columns)
        targets = tuple(dict.fromkeys(map(tuple, groupings)))
        #: 𝒯 is the first ``_num_targets`` counted groupings; G follows
        #: when it is not one of them
        self._num_targets = len(targets)
        self._groupings: Tuple[Tuple[str, ...], ...] = (
            targets
            if self._grouping_columns in targets
            else targets + (self._grouping_columns,)
        )
        positions = {name: i for i, name in enumerate(self._grouping_columns)}
        self._projections: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(positions[name] for name in target)
            for target in self._groupings
        )
        self._slot = {target: t for t, target in enumerate(self._groupings)}
        #: finest keys by dense id, and the reverse lookup
        self._keys: List[GroupKey] = []
        self._ids: Dict[GroupKey, int] = {}
        # per grouping: cell of each projected key (first-seen order), the
        # cell of each finest group by dense id, and each cell's count
        self._cell_of: Tuple[Dict[GroupKey, int], ...] = tuple(
            {} for __ in self._groupings
        )
        self._cells: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for __ in self._groupings
        ]
        self._counts: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for __ in self._groupings
        ]
        self._total = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_table(
        cls, table: Table, grouping_columns: Sequence[str]
    ) -> "CountDataCube":
        """Build the cube from a materialized relation in one pass."""
        cube = cls(grouping_columns)
        finest = group_counts(table, grouping_columns)
        cube.observe_counts(finest)
        return cube

    def register(
        self,
        keys: Iterable[GroupKey],
        normalize: Optional[Callable[[GroupKey], GroupKey]] = None,
    ) -> np.ndarray:
        """The dense id of each finest group in ``keys``, without counting
        it; a key not seen before gets the next id, in ``keys``' order.

        ``normalize``, if given, maps a key the cube does not know as given
        to the key it stands for, which is looked up (and registered) in
        its place.
        """
        ids = self._ids
        out, new = [], []
        for key in keys:
            gid = ids.get(key)
            if gid is None and normalize is not None:
                key = normalize(key)
                gid = ids.get(key)
            if gid is None:
                gid = ids[key] = len(self._keys)
                self._keys.append(key)
                new.append(key)
            out.append(gid)
        if new:
            for t, (positions, cell_of) in enumerate(
                zip(self._projections, self._cell_of)
            ):
                cells = []
                for key in new:
                    projected = tuple(key[i] for i in positions)
                    cell = cell_of.get(projected)
                    if cell is None:
                        cell = cell_of[projected] = len(cell_of)
                    cells.append(cell)
                self._cells[t] = np.concatenate(
                    [self._cells[t], np.array(cells, dtype=np.int64)]
                )
                grown = len(cell_of) - len(self._counts[t])
                if grown:
                    self._counts[t] = np.concatenate(
                        [self._counts[t], np.zeros(grown, dtype=np.int64)]
                    )
        return np.array(out, dtype=np.int64)

    def add(self, gids: np.ndarray, counts: np.ndarray) -> None:
        """Record ``counts[i]`` (>= 0) more tuples of the group with dense
        id ``gids[i]`` (from :meth:`register`)."""
        counts = np.asarray(counts, dtype=np.int64)
        self._total += int(counts.sum())
        for cells, cell_counts in zip(self._cells, self._counts):
            np.add.at(cell_counts, cells[gids], counts)

    def observe(self, key: GroupKey) -> int:
        """Record one tuple of finest group ``key``; returns its dense id."""
        gid = self.register([tuple(key)])
        self.add(gid, [1])
        return int(gid[0])

    def observe_counts(self, finest_counts: Mapping[GroupKey, int]) -> List[int]:
        """Record many tuples at once from finest-group counts.

        New groups get dense ids in the mapping's order; returns each
        group's id, in that order.
        """
        for key, count in finest_counts.items():
            if count < 0:
                raise ValueError(f"negative count for group {key}: {count}")
        gids = self.register(map(tuple, finest_counts))
        self.add(gids, list(finest_counts.values()))
        return gids.tolist()

    # -- accessors -----------------------------------------------------------

    @property
    def grouping_columns(self) -> Tuple[str, ...]:
        return self._grouping_columns

    @property
    def groupings(self) -> Tuple[Tuple[str, ...], ...]:
        """Eq. 8's ``𝒯``, deduplicated, in the order given."""
        return self._groupings[: self._num_targets]

    @property
    def total(self) -> int:
        """Total number of tuples observed (``|R|``)."""
        return self._total

    @property
    def group_keys(self) -> Tuple[GroupKey, ...]:
        """Finest group keys by dense id (first-seen order)."""
        return tuple(self._keys)

    def num_groups(self, target: Sequence[str]) -> int:
        """``m_T``: non-empty groups under grouping ``target`` (one of
        :attr:`groupings`, or ``G``)."""
        return len(self._cell_of[self._slot[tuple(target)]])

    def count(self, target: Sequence[str], group: GroupKey) -> int:
        """``n_h`` for group ``h`` under grouping ``target`` (0 if unseen)."""
        t = self._slot[tuple(target)]
        cell = self._cell_of[t].get(tuple(group))
        return 0 if cell is None else int(self._counts[t][cell])

    def counts(self, target: Sequence[str]) -> Dict[GroupKey, int]:
        """All group counts under ``target`` (copy)."""
        t = self._slot[tuple(target)]
        return dict(zip(self._cell_of[t], self._counts[t].tolist()))

    def finest_counts(self) -> Dict[GroupKey, int]:
        """Counts at the finest partitioning (grouping = ``G``)."""
        return self.counts(self._grouping_columns)

    def selection_probability(self, key: GroupKey, budget: float) -> float:
        """Equation 8's (un-normalized) per-tuple selection probability.

        ``max_{T ∈ 𝒯} budget / (m_T * n_{g(τ,T)})`` for a tuple in finest
        group ``key``, clamped to 1.  This is what the Eq. 8 maintainer
        keeps as its acceptance probability.  An unseen ``key`` takes the
        maximum over the cells it would fall in that exist.
        """
        key = tuple(key)
        best = 0.0
        k = self._num_targets
        for positions, cell_of, counts in zip(
            self._projections[:k], self._cell_of[:k], self._counts[:k]
        ):
            cell = cell_of.get(tuple(key[i] for i in positions))
            n_h = 0 if cell is None else int(counts[cell])
            if n_h:
                share = budget / (len(counts) * n_h)
                if share > best:
                    best = share
        return min(1.0, best)

    def selection_probabilities(self, budget: float) -> np.ndarray:
        """:meth:`selection_probability` of every finest group, by dense id.

        The same IEEE operations as the per-group form: ``budget / (m_T *
        n_h)`` per grouping of ``𝒯`` (a zero count contributes nothing),
        the maximum over them, then the clamp to 1.
        """
        best = np.zeros(len(self._keys))
        k = self._num_targets
        for cells, counts in zip(self._cells[:k], self._counts[:k]):
            n_h = counts[cells]
            share = np.zeros(len(n_h))
            np.divide(budget, len(counts) * n_h, out=share, where=n_h > 0)
            best = np.maximum(best, share)
        return np.minimum(1.0, best)
