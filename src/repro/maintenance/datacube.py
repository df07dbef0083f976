"""Count data cube over all groupings of the grouping attributes.

Section 6 of the paper: "Given a data cube of the counts of each group in
all possible groupings, the target sizes are known, and any of our biased
samples can be constructed in one pass."  This module provides that cube --
for every grouping ``T ⊆ G`` it tracks ``m_T`` (the number of non-empty
groups under ``T``) and ``n_h`` for each group ``h`` -- maintained
incrementally at O(2^|G|) counter updates per inserted tuple, which is also
exactly the bookkeeping the Eq. 8 Congress maintainer needs.

Each finest group gets a dense id the first time it is seen.  Per grouping
``T`` the cube keeps the ``T``-groups (its *cells*) in first-seen order,
their counts, and the cell of every finest group, so recording a tuple is
``2^|G|`` increments and Eq. 8 for every finest group at once is one array
expression per grouping (:meth:`CountDataCube.selection_probabilities`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.table import Table
from ..sampling.groups import GroupKey, all_groupings, group_counts

__all__ = ["CountDataCube"]


class CountDataCube:
    """Group counts for every grouping ``T ⊆ G``, incrementally updated."""

    def __init__(self, grouping_columns: Sequence[str]):
        self._grouping_columns = tuple(grouping_columns)
        self._groupings: Tuple[Tuple[str, ...], ...] = tuple(
            all_groupings(self._grouping_columns)
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
        # cell of each finest group, and each cell's count
        self._cell_of: Tuple[Dict[GroupKey, int], ...] = tuple(
            {} for __ in self._groupings
        )
        self._cells: Tuple[List[int], ...] = tuple([] for __ in self._groupings)
        self._counts: Tuple[List[int], ...] = tuple(
            [] for __ in self._groupings
        )
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

    def _group_id(self, key: GroupKey) -> int:
        """The dense id of finest group ``key``, registering it if new."""
        gid = self._ids.get(key)
        if gid is None:
            gid = self._ids[key] = len(self._keys)
            self._keys.append(key)
            for positions, cell_of, cells, counts in zip(
                self._projections, self._cell_of, self._cells, self._counts
            ):
                projected = tuple(key[i] for i in positions)
                cell = cell_of.get(projected)
                if cell is None:
                    cell = cell_of[projected] = len(counts)
                    counts.append(0)
                cells.append(cell)
        return gid

    def _add(self, key: GroupKey, count: int) -> int:
        gid = self._group_id(tuple(key))
        self._total += count
        for cells, counts in zip(self._cells, self._counts):
            counts[cells[gid]] += count
        return gid

    def observe(self, key: GroupKey) -> int:
        """Record one tuple of finest group ``key``; returns its dense id."""
        return self._add(key, 1)

    def observe_counts(self, finest_counts: Mapping[GroupKey, int]) -> List[int]:
        """Record many tuples at once from finest-group counts.

        New groups get dense ids in the mapping's order; returns each
        group's id, in that order.
        """
        ids = []
        for key, count in finest_counts.items():
            if count < 0:
                raise ValueError(f"negative count for group {key}: {count}")
            ids.append(self._add(key, count))
        return ids

    # -- accessors -----------------------------------------------------------

    @property
    def grouping_columns(self) -> Tuple[str, ...]:
        return self._grouping_columns

    @property
    def groupings(self) -> Tuple[Tuple[str, ...], ...]:
        return self._groupings

    @property
    def total(self) -> int:
        """Total number of tuples observed (``|R|``)."""
        return self._total

    @property
    def group_keys(self) -> Tuple[GroupKey, ...]:
        """Finest group keys by dense id (first-seen order)."""
        return tuple(self._keys)

    def num_groups(self, target: Sequence[str]) -> int:
        """``m_T``: non-empty groups under grouping ``target``."""
        return len(self._counts[self._slot[tuple(target)]])

    def count(self, target: Sequence[str], group: GroupKey) -> int:
        """``n_h`` for group ``h`` under grouping ``target`` (0 if unseen)."""
        t = self._slot[tuple(target)]
        cell = self._cell_of[t].get(tuple(group))
        return 0 if cell is None else self._counts[t][cell]

    def counts(self, target: Sequence[str]) -> Dict[GroupKey, int]:
        """All group counts under ``target`` (copy)."""
        t = self._slot[tuple(target)]
        return dict(zip(self._cell_of[t], self._counts[t]))

    def finest_counts(self) -> Dict[GroupKey, int]:
        """Counts at the finest partitioning (grouping = ``G``)."""
        return self.counts(self._grouping_columns)

    def selection_probability(self, key: GroupKey, budget: float) -> float:
        """Equation 8's (un-normalized) per-tuple selection probability.

        ``max_{T ⊆ G} budget / (m_T * n_{g(τ,T)})`` for a tuple in finest
        group ``key``, clamped to 1.  This is what the Eq. 8 Congress
        maintainer keeps as its acceptance probability.  An unseen ``key``
        takes the maximum over the cells it would fall in that exist.
        """
        key = tuple(key)
        gid = self._ids.get(key)
        if gid is not None:
            return self.group_probability(gid, budget)
        cells = [
            cell_of.get(tuple(key[i] for i in positions))
            for positions, cell_of in zip(self._projections, self._cell_of)
        ]
        return self._probability(cells, budget)

    def group_probability(self, gid: int, budget: float) -> float:
        """:meth:`selection_probability` of the group with dense id ``gid``."""
        return self._probability([cells[gid] for cells in self._cells], budget)

    def _probability(self, cells: List[Optional[int]], budget: float) -> float:
        """Eq. 8 over one cell per grouping (``None``: no such cell)."""
        best = 0.0
        for cell, counts in zip(cells, self._counts):
            if cell is not None and counts[cell]:
                share = budget / (len(counts) * counts[cell])
                if share > best:
                    best = share
        return min(1.0, best)

    def selection_probabilities(self, budget: float) -> np.ndarray:
        """:meth:`selection_probability` of every finest group, by dense id.

        The same IEEE operations as the per-group form: ``budget / (m_T *
        n_h)`` per grouping (a zero count contributes nothing), the maximum
        over groupings, then the clamp to 1.
        """
        best = np.zeros(len(self._keys))
        for cells, counts in zip(self._cells, self._counts):
            n_h = np.array(counts, dtype=np.int64)[np.array(cells, np.int64)]
            share = np.zeros(len(n_h))
            np.divide(budget, len(counts) * n_h, out=share, where=n_h > 0)
            best = np.maximum(best, share)
        return np.minimum(1.0, best)
