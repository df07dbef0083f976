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
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.groupby import factorize, key_tuples
from ..engine.schema import Column, ColumnType, Schema
from ..engine.table import Table
from ..errors import SynopsisCorruptError
from .groups import GroupKey, finest_group_ids, make_key, project_key

__all__ = [
    "Stratum",
    "SampleFrame",
    "StratifiedSample",
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


class SampleFrame:
    """Everything about one sample that is the same for every query.

    A :class:`StratifiedSample` never changes after construction, so the
    arrays every answer needs -- which base rows were sampled, each row's
    scale factor and stratum, the gathered sample rows, the per-stratum
    populations and sizes, and how strata project onto a coarser ``GROUP BY``
    -- are computed once, here, and only read afterwards.  The frame is
    built lazily by :attr:`StratifiedSample.frame` and owned by that sample
    object: whoever installs a different sample (a rebuild, a refresh, a
    fault injector) necessarily installs a different frame, so nothing
    cached here can outlive the strata it was computed from.  All arrays
    are read-only.

    Per-row arrays and the unsuffixed per-stratum arrays cover the strata
    holding at least one sample tuple, in ``strata`` insertion order (the
    order every estimator accumulates in); the ``all_*`` arrays cover every
    stratum, sampled or not.
    """

    def __init__(self, sample: "StratifiedSample"):
        self._base = sample.base_table
        self.grouping_columns = sample.grouping_columns
        strata = self._strata = sample._strata
        self.all_keys: Tuple[GroupKey, ...] = tuple(strata)
        count = len(strata)
        self.all_populations = _readonly(
            np.fromiter(
                (s.population for s in strata.values()), np.int64, count
            )
        )
        self.all_sizes = _readonly(
            np.fromiter(
                (s.sample_size for s in strata.values()), np.int64, count
            )
        )
        sampled = [s for s in strata.values() if s.sample_size > 0]
        self.stratum_keys: Tuple[GroupKey, ...] = tuple(
            make_key(s.key) for s in sampled
        )
        has_rows = self.all_sizes > 0
        sizes = self.all_sizes[has_rows]
        self.populations = _readonly(
            self.all_populations[has_rows].astype(np.float64)
        )
        self.sizes = _readonly(sizes.astype(np.float64))
        self.row_indices = _readonly(
            np.concatenate([s.row_indices for s in sampled])
            if sampled
            else np.empty(0, dtype=np.int64)
        )
        self.stratum_ids = _readonly(
            np.repeat(np.arange(len(sampled), dtype=np.int64), sizes)
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
        :meth:`structural_issues`, when an index lies outside the base
        table.
        """
        try:
            return self._base.take(self.row_indices)
        except IndexError as exc:
            raise SynopsisCorruptError(
                "sample rows cannot be read from the base table: "
                + "; ".join(self.structural_issues())
            ) from exc

    def damaged_strata(self) -> np.ndarray:
        """Which strata fail a structural check: a mask over ``all_keys``.

        One array-at-a-time pass over the arrays the estimators read.  A
        stratum is marked when its population is negative, it holds more
        rows than its population, its scale factor is not finite and
        positive, a row index lies outside the base table, or an index
        occurs twice in it.
        """
        populations, sizes = self.all_populations, self.all_sizes
        damaged = (populations < 0) | (sizes > np.maximum(populations, 0))
        sampled = np.flatnonzero(sizes > 0)
        if not len(sampled):
            return damaged
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
        return damaged

    def structural_issues(self) -> List[str]:
        """What :meth:`damaged_strata` found, in words, in sorted key order.

        An empty list means the sample is structurally sound.  Only the
        marked strata are visited; each is re-read by the checks that word
        its issues, so the list is the one a visit to every stratum gives.
        """
        num_base = self._base.num_rows
        marked = np.flatnonzero(self.damaged_strata()).tolist()
        issues: List[str] = []
        for key in sorted(self.all_keys[i] for i in marked):
            stratum = self._strata[key]
            if stratum.population < 0:
                issues.append(
                    f"stratum {key}: negative population {stratum.population}"
                )
            if stratum.sample_size > max(stratum.population, 0):
                issues.append(
                    f"stratum {key}: sample size {stratum.sample_size} exceeds "
                    f"population {stratum.population}"
                )
            indices = np.asarray(stratum.row_indices)
            if len(indices):
                if indices.min() < 0 or indices.max() >= num_base:
                    issues.append(
                        f"stratum {key}: row indices out of bounds for base "
                        f"table of {num_base} rows"
                    )
                elif (np.diff(np.sort(indices)) == 0).any():
                    issues.append(f"stratum {key}: duplicate row indices")
            if stratum.sample_size > 0:
                sf = stratum.scale_factor
                if not math.isfinite(sf) or sf <= 0:
                    issues.append(f"stratum {key}: corrupt scale factor {sf}")
        return issues

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
            cached = frozenset(
                project_key(key, self.grouping_columns, group_by)
                for key, population in zip(
                    self.all_keys, self.all_populations.tolist()
                )
                if population > 0
            )
            self._expected[group_by] = cached
        return cached


class StratifiedSample:
    """Per-group uniform samples of a base table, with stratum metadata.

    Immutable after construction: a changed sample is a new object (which is
    what lets :attr:`frame` cache per-sample work without invalidation).
    """

    def __init__(
        self,
        base_table: Table,
        grouping_columns: Sequence[str],
        strata: Mapping[GroupKey, Stratum],
    ):
        self._base = base_table
        self._grouping_columns = tuple(grouping_columns)
        self._strata: Dict[GroupKey, Stratum] = dict(strata)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        table: Table,
        grouping_columns: Sequence[str],
        allocation: Mapping[GroupKey, int],
        rng: Optional[np.random.Generator] = None,
        scan=None,
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
            scan: optional partitioned-scan runner exposing
                ``map_partitions(table, fn)`` (e.g. a
                :class:`~repro.engine.executor.ParallelExecutor`).  The
                group-membership pass -- the expensive full-table scan of
                the construction -- then runs partition-parallel.  Because
                range partitions preserve row order and merged member lists
                are concatenated in partition order, the per-stratum member
                arrays (and therefore the drawn sample, given the same
                ``rng``) are *identical* to the serial scan's.
        """
        rng = rng if rng is not None else np.random.default_rng()
        members_by_key = cls._group_members(table, grouping_columns, scan)
        strata: Dict[GroupKey, Stratum] = {}
        for key, members in members_by_key.items():
            want = min(int(allocation.get(key, 0)), len(members))
            if want > 0:
                chosen = rng.choice(members, size=want, replace=False)
                chosen = np.sort(chosen)
            else:
                chosen = np.empty(0, dtype=np.int64)
            strata[key] = Stratum(key, len(members), chosen)
        return cls(table, grouping_columns, strata)

    @staticmethod
    def _group_members(
        table: Table, grouping_columns: Sequence[str], scan=None
    ) -> Dict[GroupKey, np.ndarray]:
        """Per-finest-group base-row indices, ascending, keys sorted.

        With ``scan``, each partition computes its local membership and the
        global lists are stitched together with the partitions' row offsets.
        """
        if scan is None:
            ids, keys = finest_group_ids(table, grouping_columns)
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            boundaries = np.searchsorted(sorted_ids, np.arange(len(keys) + 1))
            return {
                key: order[boundaries[gid] : boundaries[gid + 1]]
                for gid, key in enumerate(keys)
            }

        def local_members(part):
            local = StratifiedSample._group_members(
                part.table, grouping_columns
            )
            return {
                key: indices + part.row_offset
                for key, indices in local.items()
            }

        merged: Dict[GroupKey, List[np.ndarray]] = {}
        for partial in scan.map_partitions(table, local_members):
            for key, indices in partial.items():
                merged.setdefault(key, []).append(indices)
        return {
            key: np.concatenate(merged[key]) for key in sorted(merged)
        }

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
    def strata(self) -> Dict[GroupKey, Stratum]:
        return dict(self._strata)

    def stratum(self, key: GroupKey) -> Stratum:
        return self._strata[key]

    @property
    def total_sample_size(self) -> int:
        return sum(s.sample_size for s in self._strata.values())

    @property
    def total_population(self) -> int:
        return self.frame.total_population

    @cached_property
    def frame(self) -> SampleFrame:
        """The per-sample arrays every answer reads (built on first use)."""
        return SampleFrame(self)

    def release_frame(self) -> None:
        """Let go of the frame's memory; a later use builds it again.

        For whoever replaces this sample while other objects (cached
        answers) may still reference it.
        """
        self.__dict__.pop("frame", None)

    def sample_sizes(self) -> Dict[GroupKey, int]:
        return {key: s.sample_size for key, s in self._strata.items()}

    def scale_factors(self) -> Dict[GroupKey, float]:
        return {
            key: s.scale_factor
            for key, s in self._strata.items()
            if s.sample_size > 0
        }

    # -- materialization -----------------------------------------------------

    def _ordered_nonempty(self) -> List[Stratum]:
        return [s for __, s in sorted(self._strata.items()) if s.sample_size > 0]

    def _all_indices_and_sf(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated row indices, per-row SF, and per-row dense gid."""
        strata = self._ordered_nonempty()
        if not strata:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64), empty
        indices = np.concatenate([s.row_indices for s in strata])
        sfs = np.concatenate(
            [np.full(s.sample_size, s.scale_factor) for s in strata]
        )
        gids = np.concatenate(
            [np.full(s.sample_size, gid, dtype=np.int64)
             for gid, s in enumerate(strata)]
        )
        return indices, sfs, gids

    def sample_table(self) -> Table:
        """The bare sample relation (no scale-factor bookkeeping)."""
        indices, __, __ = self._all_indices_and_sf()
        return self._base.take(indices)

    def integrated_relation(self) -> Table:
        """Sample relation with a per-tuple ``SF`` column (Figure 8/11)."""
        indices, sfs, __ = self._all_indices_and_sf()
        return self._base.take(indices).with_column(
            Column(SF_COLUMN, ColumnType.FLOAT), sfs
        )

    def normalized_relations(self) -> Tuple[Table, Table]:
        """``(SampRel, AuxRel)`` keyed by the grouping columns (Figure 9)."""
        indices, __, __ = self._all_indices_and_sf()
        samp_rel = self._base.take(indices)
        strata = self._ordered_nonempty()
        aux_schema = Schema(
            [self._base.schema.column(name) for name in self._grouping_columns]
            + [Column(SF_COLUMN, ColumnType.FLOAT)]
        )
        aux_rows = [tuple(s.key) + (s.scale_factor,) for s in strata]
        return samp_rel, Table.from_rows(aux_schema, aux_rows)

    def key_normalized_relations(self) -> Tuple[Table, Table]:
        """``(SampRel + GID, AuxRel(GID, SF))`` (Figure 10)."""
        indices, __, gids = self._all_indices_and_sf()
        samp_rel = self._base.take(indices).with_column(
            Column(GID_COLUMN, ColumnType.INT), gids
        )
        strata = self._ordered_nonempty()
        aux_schema = Schema(
            [Column(GID_COLUMN, ColumnType.INT), Column(SF_COLUMN, ColumnType.FLOAT)]
        )
        aux_rows = [(gid, s.scale_factor) for gid, s in enumerate(strata)]
        return samp_rel, Table.from_rows(aux_schema, aux_rows)
