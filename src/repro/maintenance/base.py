"""Shared machinery for the streaming sample maintainers of Section 6.

All maintainers consume a stream of row tuples (values in schema order) via
:meth:`SampleMaintainer.insert` and can, at any point, produce a
:class:`MaintainedSample`: the sampled rows as columns, each finest group's
row positions in them, and the true group populations seen so far.
``MaintainedSample.to_stratified()`` converts to the standard
:class:`~repro.sampling.stratified.StratifiedSample` container (the base
table being the sampled rows themselves, with populations carried from the
stream counters), so estimators and rewrite strategies work unchanged on
maintained samples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..engine.schema import Schema
from ..engine.table import Table
from ..sampling.groups import GroupKey, make_key
from ..sampling.stratified import StratifiedSample, Stratum

__all__ = ["MaintainedSample", "SampleMaintainer", "KeyExtractor"]


class KeyExtractor:
    """Extract the finest-partition group key from a row tuple."""

    def __init__(self, schema: Schema, grouping_columns: Sequence[str]):
        self._positions = tuple(
            schema.position(name) for name in grouping_columns
        )

    def __call__(self, row: Sequence) -> GroupKey:
        return make_key(tuple(row[i] for i in self._positions))


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
    lists); ``positions[g]`` are group ``g``'s rows in it, in the group's
    sample order.
    """

    grouping_columns: Tuple[str, ...]
    rows: Table
    positions: Dict[GroupKey, np.ndarray]
    populations: Dict[GroupKey, int]

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
        positions = split(
            np.arange(len(rows), dtype=np.int64),
            list(rows_by_group),
            [len(group) for group in rows_by_group.values()],
        )
        return cls(tuple(grouping_columns), rows, positions, dict(populations))

    @property
    def schema(self) -> Schema:
        return self.rows.schema

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
        return sum(len(at) for at in self.positions.values())

    @property
    def total_population(self) -> int:
        """Total rows observed on the stream across all groups."""
        return sum(int(p) for p in self.populations.values())

    def sample_sizes(self) -> Dict[GroupKey, int]:
        return {key: len(at) for key, at in self.positions.items()}

    def to_stratified(self) -> StratifiedSample:
        """Repackage as a :class:`StratifiedSample`.

        The "base table" is the sampled rows, gathered by one ``take`` in
        sorted group order; each stratum is a slice of one ``arange`` over
        it, and its ``population`` is the true group size observed on the
        stream, so scale factors are correct even though the full relation
        was never materialized.
        """
        ordered = sorted(self.positions)
        gathered = [self.positions[key] for key in ordered]
        base = _narrowest(
            self.rows.take(
                np.concatenate(gathered) if gathered else np.empty(0, np.int64)
            )
        )
        sizes = [len(at) for at in gathered]
        slices = split(np.arange(len(base), dtype=np.int64), ordered, sizes)
        strata = {
            key: Stratum(key, int(self.populations.get(key, size)), at)
            for (key, at), size in zip(slices.items(), sizes)
        }
        return StratifiedSample(base, self.grouping_columns, strata)


def split(
    values: np.ndarray, keys: Sequence[GroupKey], sizes: Sequence[int]
) -> Dict[GroupKey, np.ndarray]:
    """``values`` cut into consecutive slices ``sizes`` long, by key."""
    out, cursor = {}, 0
    for key, size in zip(keys, sizes):
        out[key] = values[cursor : cursor + size]
        cursor += size
    return out


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
