"""The sample a Section 6 maintainer hands over.

:meth:`~repro.maintenance.congress.CongressMaintainer.snapshot` produces a
:class:`MaintainedSample`: the sampled rows as columns, each finest group's
row positions in them as one array, and the true group populations seen so
far.  ``MaintainedSample.to_stratified()`` converts to the standard
:class:`~repro.sampling.stratified.StratifiedSample` container (the base
table being the sampled rows themselves, with populations carried from the
stream counters), so estimators and rewrite strategies work unchanged on
maintained samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..engine.schema import Schema
from ..engine.table import Table
from ..sampling.groups import GroupKey
from ..sampling.stratified import StratifiedSample, segment_positions

__all__ = ["MaintainedSample"]


def _narrowest(table: Table) -> Table:
    """``table`` with each string column at the width its longest value
    needs -- the width :meth:`Table.from_rows` gives the same values."""
    columns = table.columns()
    for name, values in columns.items():
        if values.dtype.kind == "U":
            width = max(1, int(np.char.str_len(values).max(initial=0)))
            if values.dtype.itemsize != 4 * width:
                columns[name] = values.astype(f"<U{width}")
    return Table(table.schema, columns)


@dataclass
class MaintainedSample:
    """Output of a maintainer: sampled rows and populations per group.

    ``rows`` holds the sampled rows as columns (it may hold rows no group
    lists).  Group ``keys[i]`` holds ``sizes[i]`` of them: the entries of
    ``members`` (positions in ``rows``) from ``sizes[:i].sum()`` on, in the
    group's sample order.  ``populations`` counts every group seen on the
    stream, sampled or not.
    """

    grouping_columns: Tuple[str, ...]
    rows: Table
    keys: Tuple[GroupKey, ...]
    members: np.ndarray
    sizes: np.ndarray
    populations: Dict[GroupKey, int]

    @property
    def schema(self) -> Schema:
        return self.rows.schema

    @cached_property
    def positions(self) -> Mapping[GroupKey, np.ndarray]:
        """Each group's positions in ``rows`` (a read-only mapping)."""
        ends = np.cumsum(self.sizes).tolist()
        return MappingProxyType(
            {
                key: self.members[end - size : end]
                for key, size, end in zip(self.keys, self.sizes.tolist(), ends)
            }
        )

    @property
    def rows_by_group(self) -> Dict[GroupKey, List[Tuple]]:
        """Each group's sampled rows as tuples of Python values (a copy)."""
        columns = [self.rows.column(name) for name in self.schema.names]
        return {
            key: list(zip(*(column[at].tolist() for column in columns)))
            for key, at in self.positions.items()
        }

    @property
    def total_sample_size(self) -> int:
        return int(self.sizes.sum())

    @property
    def total_population(self) -> int:
        """Total rows observed on the stream across all groups."""
        return sum(int(p) for p in self.populations.values())

    def sample_sizes(self) -> Dict[GroupKey, int]:
        return dict(zip(self.keys, self.sizes.tolist()))

    def to_stratified(self) -> StratifiedSample:
        """Repackage as a :class:`StratifiedSample`.

        Every group seen on the stream becomes a stratum, in sorted key
        order; a group with no sampled row is an empty stratum.  The "base
        table" is the sampled rows, gathered by one ``take`` in that order,
        so the strata's row indices are one ``arange`` over it.  A
        stratum's ``population`` is the true group size observed on the
        stream, so scale factors are correct even though the full relation
        was never materialized.
        """
        held = dict(zip(self.keys, range(len(self.keys))))
        unlisted = held.keys() - self.populations.keys()
        keys = sorted(chain(self.populations, unlisted))
        at = np.fromiter(map(held.get, keys, repeat(-1)), np.int64, len(keys))
        sampled = at >= 0
        sizes = np.zeros(len(keys), dtype=np.int64)
        sizes[sampled] = self.sizes[at[sampled]]
        starts = np.cumsum(self.sizes) - self.sizes
        gathered = segment_positions(starts[at[sampled]], sizes[sampled])
        base = _narrowest(self.rows.take(self.members[gathered]))
        populations = np.fromiter(
            map(self.populations.get, keys, sizes.tolist()), np.int64, len(keys)
        )
        return StratifiedSample.from_arrays(
            base,
            self.grouping_columns,
            keys,
            populations,
            sizes,
            np.arange(len(base), dtype=np.int64),
        )

