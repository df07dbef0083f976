"""Stratified sample container and sample-relation materialization.

A :class:`StratifiedSample` is the physical realization of any of the
paper's allocation strategies: each finest group is a *stratum* holding a
uniform random sample (without replacement) of its tuples, together with the
stratum population ``n_g``.  From it we derive the per-tuple *ScaleFactor*
(inverse sampling rate, Section 5.1) and materialize the sample relation
layouts required by the four rewriting strategies:

* *Integrated* / *Nested-integrated*: one relation with an ``SF`` column.
* *Normalized*: plain sample relation + ``AuxRel(grouping columns, SF)``.
* *Key-normalized*: sample relation with a ``GID`` column +
  ``AuxRel(GID, SF)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.groupby import factorize, key_tuples
from ..engine.schema import Column, ColumnType, Schema
from ..engine.table import Table
from ..errors import SynopsisCorruptError
from .groups import GroupKey, group_members, make_key, project_keys

__all__ = [
    "Stratum",
    "SampleFrame",
    "StratifiedSample",
    "segment_positions",
    "SF_COLUMN",
    "GID_COLUMN",
]

SF_COLUMN = "sf"
GID_COLUMN = "gid"


@dataclass(frozen=True)
class Stratum:
    """One stratum: a uniform sample of the tuples of one finest group."""

    key: GroupKey
    population: int
    row_indices: np.ndarray  # indices into the base table

    @property
    def sample_size(self) -> int:
        return len(self.row_indices)

    @property
    def sampling_rate(self) -> float:
        """Fraction of the stratum's tuples in the sample (0 if empty)."""
        if self.population == 0:
            return 0.0
        return self.sample_size / self.population

    @property
    def scale_factor(self) -> float:
        """Inverse sampling rate: each sampled tuple represents this many."""
        if self.sample_size == 0:
            return float("nan")
        return self.population / self.sample_size


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] : starts[i] + lengths[i]``, one segment
    after the other, as one int64 array."""
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(lengths.sum(), dtype=np.int64)


class SampleFrame:
    """Everything about one sample that is the same for every query.

    A :class:`StratifiedSample` never changes after construction, so the
    arrays every answer needs -- which base rows were sampled, each row's
    scale factor and stratum, the gathered sample rows, the per-stratum
    populations and sizes, and how strata project onto a coarser ``GROUP BY``
    -- are computed once, here, and only read afterwards.  The frame is
    built from the sample's arrays by :attr:`StratifiedSample.frame` and
    owned by that sample object: whoever installs a different sample (a
    rebuild, a refresh, a fault injector) necessarily installs a different
    frame, so nothing cached here can outlive the strata it was computed
    from.  That holds for the structural verdict too
    (:attr:`damaged_strata`, :attr:`structural_issues`): it is worked out on
    first read and then remembered for as long as the frame lives.  All
    arrays are read-only.  The frame holds no reference to its sample, so a
    replaced sample is freed as soon as nothing else holds it.

    Per-row arrays and the unsuffixed per-stratum arrays cover the strata
    holding at least one sample tuple, in ``strata`` insertion order (the
    order every estimator accumulates in); the ``all_*`` arrays cover every
    stratum, sampled or not.
    """

    def __init__(self, sample: "StratifiedSample"):
        self._base = sample.base_table
        self.grouping_columns = sample.grouping_columns
        self.all_keys: Tuple[GroupKey, ...] = sample.keys
        self.all_populations = sample.populations
        self.all_sizes = sample.sizes
        has_rows = self.all_sizes > 0
        sizes = self.all_sizes[has_rows]
        self.stratum_keys: Tuple[GroupKey, ...] = tuple(
            compress(sample._normalized_keys, has_rows.tolist())
        )
        self.populations = _readonly(
            self.all_populations[has_rows].astype(np.float64)
        )
        self.sizes = _readonly(sizes.astype(np.float64))
        self.row_indices = sample.row_indices
        self.stratum_ids = _readonly(
            np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        )
        # population / size, exactly Stratum.scale_factor for each row
        self.sf = _readonly(np.repeat(self.populations / self.sizes, sizes))
        self._projections: Dict[Tuple[str, ...], tuple] = {}
        self._expected: Dict[Tuple[str, ...], FrozenSet[GroupKey]] = {}

    @property
    def num_strata(self) -> int:
        """Strata holding at least one sample tuple."""
        return len(self.stratum_keys)

    @cached_property
    def total_population(self) -> int:
        """Base rows the strata (sampled or not) stand for."""
        return int(self.all_populations.sum())

    @cached_property
    def rows(self) -> Table:
        """The sampled base rows, aligned with ``row_indices``.

        Raises :class:`~repro.errors.SynopsisCorruptError`, worded by
        :attr:`structural_issues`, when an index lies outside the base
        table.
        """
        try:
            return self._base.take(self.row_indices)
        except IndexError as exc:
            raise SynopsisCorruptError(
                "sample rows cannot be read from the base table: "
                + "; ".join(self.structural_issues)
            ) from exc

    @cached_property
    def damaged_strata(self) -> np.ndarray:
        """Which strata fail a structural check: a mask over ``all_keys``.

        One array-at-a-time pass over the arrays the estimators read, run
        on first read.  A stratum is marked when its population is
        negative, it holds more rows than its population, its scale factor
        is not finite and positive, a row index lies outside the base
        table, or an index occurs twice in it.
        """
        populations, sizes = self.all_populations, self.all_sizes
        damaged = (populations < 0) | (sizes > np.maximum(populations, 0))
        sampled = np.flatnonzero(sizes > 0)
        if not len(sampled):
            return _readonly(damaged)
        scale = self.populations / self.sizes
        corrupt = ~(np.isfinite(scale) & (scale > 0))
        sampled_sizes = sizes[sampled]
        starts = np.cumsum(sampled_sizes) - sampled_sizes
        outside = (np.minimum.reduceat(self.row_indices, starts) < 0) | (
            np.maximum.reduceat(self.row_indices, starts)
            >= self._base.num_rows
        )
        # sort by (stratum, index): a repeated index is next to its twin
        order = np.lexsort((self.row_indices, self.stratum_ids))
        indices = self.row_indices[order]
        stratum = self.stratum_ids[order]
        twin = (indices[1:] == indices[:-1]) & (stratum[1:] == stratum[:-1])
        repeated = np.zeros(len(sampled), dtype=bool)
        repeated[stratum[1:][twin]] = True
        damaged[sampled] |= corrupt | outside | repeated
        return _readonly(damaged)

    @cached_property
    def structural_issues(self) -> Tuple[str, ...]:
        """What :attr:`damaged_strata` found, in words, in sorted key order.

        Empty when the sample is structurally sound.  Only the marked
        strata are visited; each is re-read from the sample's arrays by the
        checks that word its issues, so the tuple is the one a visit to
        every stratum gives.
        """
        num_base = self._base.num_rows
        marked = np.flatnonzero(self.damaged_strata).tolist()
        if not marked:
            return ()
        ends = np.cumsum(self.all_sizes)
        issues: List[str] = []
        for i in sorted(marked, key=self.all_keys.__getitem__):
            key = self.all_keys[i]
            population, size = int(self.all_populations[i]), int(self.all_sizes[i])
            end = int(ends[i])
            if population < 0:
                issues.append(f"stratum {key}: negative population {population}")
            if size > max(population, 0):
                issues.append(
                    f"stratum {key}: sample size {size} exceeds "
                    f"population {population}"
                )
            indices = self.row_indices[end - size : end]
            if len(indices):
                if indices.min() < 0 or indices.max() >= num_base:
                    issues.append(
                        f"stratum {key}: row indices out of bounds for base "
                        f"table of {num_base} rows"
                    )
                elif (np.diff(np.sort(indices)) == 0).any():
                    issues.append(f"stratum {key}: duplicate row indices")
            if size > 0:
                sf = population / size
                if not math.isfinite(sf) or sf <= 0:
                    issues.append(f"stratum {key}: corrupt scale factor {sf}")
        return tuple(issues)

    @property
    def judged(self) -> bool:
        """Whether :attr:`structural_issues` has been worked out already."""
        return "structural_issues" in self.__dict__

    @cached_property
    def key_table(self) -> Table:
        """One row per sampled stratum: its key over the grouping columns."""
        schema = Schema(
            [self._base.schema.column(c) for c in self.grouping_columns]
        )
        return Table.from_rows(schema, self.stratum_keys)

    def qualifies(self, predicate) -> np.ndarray:
        """Which sample rows satisfy ``predicate`` (``None``: all of them)."""
        if predicate is None:
            return np.ones(len(self.row_indices), dtype=bool)
        return predicate.evaluate(self.rows)

    def projection(
        self, group_by: Sequence[str]
    ) -> Tuple[np.ndarray, List[GroupKey], List[np.ndarray]]:
        """How the sampled strata roll up to ``group_by``.

        Returns ``(targets, keys, key_arrays)``: ``targets[h]`` is the index
        in ``keys`` of the answer group stratum ``h`` lies in, ``keys`` the
        sorted distinct answer-group keys and ``key_arrays`` the same keys
        column by column.  ``group_by`` must be a subset of the grouping
        columns.  Memoised per ``group_by``.
        """
        group_by = tuple(group_by)
        cached = self._projections.get(group_by)
        if cached is None:
            if group_by:
                targets, key_arrays = factorize(
                    [self.key_table.column(c) for c in group_by]
                )
                keys = key_tuples(key_arrays)
            else:
                targets = np.zeros(self.num_strata, dtype=np.int64)
                keys, key_arrays = [()], []
            cached = (
                _readonly(targets),
                keys,
                [_readonly(column) for column in key_arrays],
            )
            self._projections[group_by] = cached
        return cached

    def expected_groups(self, group_by: Sequence[str]) -> FrozenSet[GroupKey]:
        """Answer groups under ``group_by`` that some populated stratum
        (sampled or not) projects onto.  Memoised per ``group_by``."""
        group_by = tuple(group_by)
        cached = self._expected.get(group_by)
        if cached is None:
            populated = list(
                compress(self.all_keys, (self.all_populations > 0).tolist())
            )
            cached = frozenset(
                project_keys(populated, self.grouping_columns, group_by)
                if populated
                else ()
            )
            self._expected[group_by] = cached
        return cached


class StratifiedSample:
    """Per-group uniform samples of a base table, with stratum metadata.

    The strata are held as arrays: ``keys`` in insertion order, their
    ``populations`` and ``sizes`` (int64), and one ``row_indices`` array
    holding every stratum's base-row indices, strata in key order.
    Immutable after construction (all arrays are read-only): a changed
    sample is a new object, which is what lets :attr:`frame` cache
    per-sample work without invalidation.  :attr:`strata` is a view of
    :class:`Stratum` objects sliced from the arrays, built on first use.
    """

    def __init__(
        self,
        base_table: Table,
        grouping_columns: Sequence[str],
        strata: Mapping[GroupKey, Stratum],
    ):
        keys = tuple(strata)
        values = list(strata.values())
        sampled = [s.row_indices for s in values if s.sample_size > 0]
        self._adopt(
            base_table,
            grouping_columns,
            keys,
            tuple(map(make_key, keys)),
            np.fromiter((s.population for s in values), np.int64, len(keys)),
            np.fromiter((s.sample_size for s in values), np.int64, len(keys)),
            np.concatenate(sampled) if sampled else np.empty(0, np.int64),
        )

    def _adopt(
        self,
        base_table: Table,
        grouping_columns: Sequence[str],
        keys: Tuple[GroupKey, ...],
        normalized_keys: Tuple[GroupKey, ...],
        populations: np.ndarray,
        sizes: np.ndarray,
        row_indices: np.ndarray,
    ) -> None:
        if not len(keys) == len(populations) == len(sizes):
            raise ValueError(
                f"{len(keys)} keys, {len(populations)} populations and "
                f"{len(sizes)} sizes do not line up"
            )
        if int(sizes.sum()) != len(row_indices):
            raise ValueError(
                f"sizes sum to {int(sizes.sum())} but {len(row_indices)} row "
                "indices were given"
            )
        self._base = base_table
        self._grouping_columns = tuple(grouping_columns)
        self._keys = keys
        self._normalized_keys = normalized_keys
        self._populations = _readonly(populations)
        self._sizes = _readonly(sizes)
        self._row_indices = _readonly(row_indices)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        base_table: Table,
        grouping_columns: Sequence[str],
        keys: Sequence[GroupKey],
        populations: np.ndarray,
        sizes: np.ndarray,
        row_indices: np.ndarray,
    ) -> "StratifiedSample":
        """Assemble from the arrays the sample holds, without a per-stratum
        pass.

        ``keys`` must already be normalized (:func:`make_key`);
        ``populations`` and ``sizes`` are aligned with them, and
        ``row_indices`` holds each stratum's ``sizes[i]`` base-row indices,
        strata in key order.  The arrays are adopted, not copied, and made
        read-only.
        """
        sample = cls.__new__(cls)
        keys = tuple(keys)
        sample._adopt(
            base_table,
            grouping_columns,
            keys,
            keys,
            np.asarray(populations, dtype=np.int64),
            np.asarray(sizes, dtype=np.int64),
            np.asarray(row_indices, dtype=np.int64),
        )
        return sample

    @classmethod
    def build(
        cls,
        table: Table,
        grouping_columns: Sequence[str],
        allocation: Mapping[GroupKey, int],
        rng: Optional[np.random.Generator] = None,
        members: Optional[Mapping[GroupKey, np.ndarray]] = None,
    ) -> "StratifiedSample":
        """Draw a uniform sample without replacement from each group.

        Args:
            table: base relation.
            grouping_columns: the stratification columns ``G``.
            allocation: integer tuples-per-group targets (e.g. from
                :meth:`repro.core.allocation.Allocation.rounded`); groups
                absent from the mapping get zero tuples.  Targets are capped
                at the group population.
            rng: numpy random generator (defaults to a fresh one).
            members: the per-group row lists of ``table`` from
                :func:`repro.sampling.groups.group_members`, when the caller
                already ran that pass; listed here otherwise.  Strata are
                drawn in the mapping's (sorted) key order.
        """
        rng = rng if rng is not None else np.random.default_rng()
        if members is None:
            members = group_members(table, grouping_columns)
        populations, sizes, chosen = [], [], []
        for key, rows in members.items():
            want = max(min(int(allocation.get(key, 0)), len(rows)), 0)
            if want:
                chosen.append(np.sort(rng.choice(rows, size=want, replace=False)))
            populations.append(len(rows))
            sizes.append(want)
        return cls.from_arrays(
            table,
            grouping_columns,
            tuple(members),
            np.array(populations, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            np.concatenate(chosen) if chosen else np.empty(0, np.int64),
        )

    @classmethod
    def from_member_lists(
        cls,
        base_table: Table,
        grouping_columns: Sequence[str],
        members: Mapping[GroupKey, Sequence[int]],
        populations: Mapping[GroupKey, int],
    ) -> "StratifiedSample":
        """Assemble from explicit per-group row-index lists.

        Used by the maintenance algorithms, which track sampled row indices
        themselves and only need the container/materialization logic.
        """
        strata = {
            key: Stratum(
                key,
                int(populations[key]),
                np.asarray(sorted(rows), dtype=np.int64),
            )
            for key, rows in members.items()
        }
        return cls(base_table, grouping_columns, strata)

    # -- accessors -----------------------------------------------------------

    @property
    def base_table(self) -> Table:
        return self._base

    @property
    def grouping_columns(self) -> Tuple[str, ...]:
        return self._grouping_columns

    @property
    def keys(self) -> Tuple[GroupKey, ...]:
        """Stratum keys in insertion order."""
        return self._keys

    @property
    def populations(self) -> np.ndarray:
        """Each stratum's population ``n_g`` (int64, aligned with ``keys``)."""
        return self._populations

    @property
    def sizes(self) -> np.ndarray:
        """Each stratum's sample size (int64, aligned with ``keys``)."""
        return self._sizes

    @property
    def row_indices(self) -> np.ndarray:
        """Every stratum's base-row indices, strata in key order."""
        return self._row_indices

    @cached_property
    def key_order(self) -> np.ndarray:
        """Positions of the strata in sorted key order."""
        keys = self._keys
        return _readonly(
            np.fromiter(
                sorted(range(len(keys)), key=keys.__getitem__),
                np.int64,
                len(keys),
            )
        )

    @cached_property
    def _strata(self) -> Dict[GroupKey, Stratum]:
        ends = np.cumsum(self._sizes).tolist()
        return {
            key: Stratum(key, population, self._row_indices[end - size : end])
            for key, population, size, end in zip(
                self._keys, self._populations.tolist(), self._sizes.tolist(), ends
            )
        }

    @property
    def strata(self) -> Dict[GroupKey, Stratum]:
        return dict(self._strata)

    def stratum(self, key: GroupKey) -> Stratum:
        return self._strata[key]

    @property
    def total_sample_size(self) -> int:
        return len(self._row_indices)

    @property
    def total_population(self) -> int:
        return int(self._populations.sum())

    @cached_property
    def frame(self) -> SampleFrame:
        """The per-sample arrays every answer reads (built on first use)."""
        return SampleFrame(self)

    def sample_sizes(self) -> Dict[GroupKey, int]:
        return dict(zip(self._keys, self._sizes.tolist()))

    def scale_factors(self) -> Dict[GroupKey, float]:
        return {
            key: s.scale_factor
            for key, s in self._strata.items()
            if s.sample_size > 0
        }

    # -- materialization -----------------------------------------------------

    def _in_key_order(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frame's sampled strata in sorted key order.

        Returns ``(strata, indices, sfs, gids)``: ``strata[j]`` is the
        frame's index of the ``j``-th sampled stratum in key order, then the
        concatenated row indices, per-row SF and per-row dense gid in that
        order.  Strata inserted in key order (every sample :meth:`build`
        and a maintained refresh make) read the frame's arrays as they are.
        """
        frame = self.frame
        order = self.key_order
        sampled_rank = np.cumsum(self._sizes > 0) - 1
        strata = sampled_rank[order[self._sizes[order] > 0]]
        if np.array_equal(strata, np.arange(len(strata))):
            return strata, frame.row_indices, frame.sf, frame.stratum_ids
        sizes = frame.sizes.astype(np.int64)
        rows = segment_positions((np.cumsum(sizes) - sizes)[strata], sizes[strata])
        gids = np.repeat(np.arange(len(strata), dtype=np.int64), sizes[strata])
        return strata, frame.row_indices[rows], frame.sf[rows], gids

    def _stratum_sf(self, strata: np.ndarray) -> np.ndarray:
        frame = self.frame
        return (frame.populations / frame.sizes)[strata]

    def sample_table(self) -> Table:
        """The bare sample relation (no scale-factor bookkeeping)."""
        __, indices, __, __ = self._in_key_order()
        return self._base.take(indices)

    def integrated_relation(self) -> Table:
        """Sample relation with a per-tuple ``SF`` column (Figure 8/11)."""
        __, indices, sfs, __ = self._in_key_order()
        return self._base.take(indices).with_column(
            Column(SF_COLUMN, ColumnType.FLOAT), sfs
        )

    def normalized_relations(self) -> Tuple[Table, Table]:
        """``(SampRel, AuxRel)`` keyed by the grouping columns (Figure 9)."""
        strata, indices, __, __ = self._in_key_order()
        aux_rel = self.frame.key_table.take(strata).with_column(
            Column(SF_COLUMN, ColumnType.FLOAT), self._stratum_sf(strata)
        )
        return self._base.take(indices), aux_rel

    def key_normalized_relations(self) -> Tuple[Table, Table]:
        """``(SampRel + GID, AuxRel(GID, SF))`` (Figure 10)."""
        strata, indices, __, gids = self._in_key_order()
        samp_rel = self._base.take(indices).with_column(
            Column(GID_COLUMN, ColumnType.INT), gids
        )
        aux_schema = Schema(
            [Column(GID_COLUMN, ColumnType.INT), Column(SF_COLUMN, ColumnType.FLOAT)]
        )
        aux_rel = Table(
            aux_schema,
            {
                GID_COLUMN: np.arange(len(strata), dtype=np.int64),
                SF_COLUMN: self._stratum_sf(strata),
            },
        )
        return samp_rel, aux_rel
