"""Per-stratum moments: the one way a servable answer is computed.

A SUM/COUNT/AVG query whose GROUP BY lies within the stratification
columns (``AquaSystem._servable``) is answered from a
:class:`ReuseSnapshot` -- the sample's per-stratum expansion moments,
masked by the query's WHERE -- and :meth:`ReuseSnapshot.finalize` is the
only arithmetic that turns them into estimates and Chebyshev half-widths.
A direct answer is that finalization at the query's own grouping.

The paper's Section 6 builds the congressional datacube by *merging* the
strata of a fine grouping into every coarser roll-up.  The roll-up tier
runs that construction in reverse at answer time: when a query misses
the answer cache, a previously-answered query over the same synopsis may
have left its snapshot in the :class:`RollupIndex`, from which any
coarser ``GROUP BY`` over a subsumed predicate is finalized without
touching the synopsis rows again.

Subsumption rules (all must hold, checked by :class:`RollupIndex`):

* same base table, same table **version**, same synopsis (allocation /
  rewrite strategy / budget / stratification), same confidence;
* the probe's ``GROUP BY`` is a subset of the stratification columns
  (each stratum then lies wholly inside one answer group);
* the probe's canonical WHERE conjuncts are a superset of the entry's:
  the entry predicate covers at least the probe's rows, and every
  *extra* probe conjunct references only stratification columns, so it
  is constant per stratum and selects whole strata (datacube slicing);
* every probe aggregate is an expansion-estimable SUM/COUNT/AVG whose
  input expression has moments in the snapshot.

Bit-identity: the snapshot's per-stratum moments are ``np.bincount``
reductions over the sample's :class:`~repro.sampling.stratified.SampleFrame`
(variance terms from :func:`repro.estimators.point.expansion_variance`, the
kernel ``estimate`` uses), and the miss path and the roll-up tier share
one finalize step (``AquaSystem._serve_moments``).  Two routes to the
same coarse answer therefore agree bit-for-bit, which the Hypothesis
suite in ``tests/aqua/test_reuse_properties.py`` asserts.

Degraded and streaming answers never register snapshots (they do not
represent a completed synopsis scan at a single version).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import (
    Aggregate,
    AggregateState,
    finalize_state,
    rollup_state,
)
from ..engine.predicates import Predicate
from ..engine.query import Query
from ..engine.schema import Column, ColumnType, Schema
from ..engine.table import Table
from ..estimators.point import expansion_variance
from ..engine.render import render_expression, render_predicate
from ..plan.canonical import (
    canonicalize_expression,
    canonicalize_predicate,
    predicate_conjuncts,
)
from ..plan.optimizer import _conjoin, _split_and
from ..sampling.stratified import SampleFrame, StratifiedSample
from .cache import LRUCache

__all__ = [
    "ONES_KEY",
    "ReuseSnapshot",
    "RollupAnswer",
    "RollupIndex",
    "RollupIndexStats",
    "lay_out",
    "moment_keys",
]

# Moment-table key for the implicit all-ones column: COUNT is the scaled
# sum of ones, and AVG's denominator is the same state.  ``Lit(1)``
# renders to "1", so an explicit SUM(1) shares it, correctly.
ONES_KEY = "1"


def moment_keys(aggregate: Aggregate) -> Tuple[str, ...]:
    """Canonical moment-table keys ``aggregate`` needs to finalize."""
    if aggregate.func == "count":
        return (ONES_KEY,)
    key = render_expression(canonicalize_expression(aggregate.expr))
    if aggregate.func == "avg":
        return (key, ONES_KEY)
    return (key,)


@dataclass(frozen=True)
class _ExprMoments:
    """Per-stratum moments for one aggregate input expression.

    ``state`` is a mergeable SUM :class:`AggregateState` over the scaled,
    predicate-masked values (the expansion estimator's numerator), one
    entry per stratum; ``var_contrib`` is each stratum's contribution
    ``N_h^2 (1 - n_h/N_h) s_h^2 / n_h`` to the estimator's variance.
    Both roll up to any coarser grouping by pure summation.
    """

    state: AggregateState
    var_contrib: np.ndarray


@dataclass(frozen=True)
class RollupAnswer:
    """A finalized roll-up: sorted group keys with estimates and bounds.

    ``key_arrays`` holds the keys one array per ``group_by`` column; every
    other array lines up with them, one entry per group.
    """

    group_by: Tuple[str, ...]
    key_arrays: Tuple[np.ndarray, ...]
    support: np.ndarray
    values: Dict[str, np.ndarray]
    halfwidths: Dict[str, np.ndarray]


def lay_out(
    query: Query,
    base_schema: Schema,
    key_arrays: Sequence[Sequence],
    values: Dict[str, np.ndarray],
    halfwidths: Dict[str, np.ndarray],
) -> Tuple[Table, np.ndarray]:
    """A stage query's answer table from per-group arrays.

    ``key_arrays`` holds one array per ``query.group_by`` column; every
    other array lines up with them.  Columns come in select order, keys
    typed as their base columns, then ``<alias>_error`` for each aggregate
    in ``halfwidths``, in aggregate order.  HAVING, ORDER BY and LIMIT
    apply as the physical plan applies them.  Returns the table and the
    kept groups' indexes into the input arrays, in output order.
    """
    position = {name: i for i, name in enumerate(query.group_by)}
    schema_columns: List[Column] = []
    columns: Dict[str, object] = {}
    for item in query.select:
        if isinstance(item, Aggregate):
            schema_columns.append(Column(item.alias, ColumnType.FLOAT))
            columns[item.alias] = values[item.alias]
        else:
            name = item.expr.name
            schema_columns.append(
                Column(item.alias, base_schema.column(name).ctype)
            )
            columns[item.alias] = key_arrays[position[name]]
    for aggregate in query.aggregates():
        if aggregate.alias in halfwidths:
            error_name = f"{aggregate.alias}_error"
            schema_columns.append(Column(error_name, ColumnType.FLOAT))
            columns[error_name] = halfwidths[aggregate.alias]
    result = Table.from_columns(Schema(schema_columns), **columns)
    order = np.arange(result.num_rows)
    if query.having is not None:
        order = np.flatnonzero(query.having.evaluate(result))
    if query.order_by:
        order = order[result.take(order).sort_order(query.order_by)]
    if query.limit is not None:
        order = order[: query.limit]
    return result.take(order), order


@dataclass(frozen=True)
class ReuseSnapshot:
    """Per-stratum expansion moments from one answered synopsis query.

    Everything here is finer-grained than any servable probe: strata are
    the synopsis' stratification groups, and the moments are masked by
    the entry query's WHERE predicate only (not by its GROUP BY), so one
    snapshot serves every coarser grouping and every whole-strata slice.
    """

    base_name: str
    version: int
    synopsis_signature: Tuple
    grouping_columns: Tuple[str, ...]
    entry_group_by: Tuple[str, ...]
    conjuncts: Tuple[str, ...]
    confidence: float
    describe_source: str
    frame: SampleFrame
    support: np.ndarray
    moments: Dict[str, _ExprMoments]

    @classmethod
    def build(
        cls,
        sample: StratifiedSample,
        predicate: Optional[Predicate],
        aggregates: Sequence[Aggregate],
        *,
        base_name: str,
        version: int,
        synopsis_signature: Tuple,
        confidence: float,
        entry_group_by: Tuple[str, ...] = (),
        describe_source: str = "",
    ) -> Optional["ReuseSnapshot"]:
        """Scan the sample once and record per-stratum moments.

        Returns ``None`` for empty samples.  Reads the sample's
        :class:`~repro.sampling.stratified.SampleFrame` (the same rows, in
        the same order, :func:`repro.estimators.point.estimate` reads), so
        the only per-query work is the predicate, the aggregate inputs and
        the per-stratum bincounts.
        """
        frame = sample.frame
        num_strata = frame.num_strata
        if not num_strata:
            return None
        rows = frame.rows
        stratum_ids, sf = frame.stratum_ids, frame.sf
        qualifies = frame.qualifies(predicate)
        support = np.bincount(
            stratum_ids[qualifies], minlength=num_strata
        ).astype(np.int64)

        needed: Dict[str, Optional[object]] = {ONES_KEY: None}
        for aggregate in aggregates:
            if aggregate.func == "count":
                continue
            expr = canonicalize_expression(aggregate.expr)
            needed.setdefault(render_expression(expr), expr)

        moments: Dict[str, _ExprMoments] = {}
        for key, expr in needed.items():
            if expr is None:
                values = np.ones(rows.num_rows)
            else:
                values = np.asarray(expr.evaluate(rows), dtype=np.float64)
            masked = np.where(qualifies, values, 0.0)
            scaled = np.bincount(
                stratum_ids, weights=masked * sf, minlength=num_strata
            )
            moments[key] = _ExprMoments(
                state=AggregateState(
                    "sum", support.astype(np.float64), scaled
                ),
                var_contrib=expansion_variance(
                    frame.populations,
                    frame.sizes,
                    np.bincount(
                        stratum_ids, weights=masked, minlength=num_strata
                    ),
                    np.bincount(
                        stratum_ids,
                        weights=masked * masked,
                        minlength=num_strata,
                    ),
                ),
            )

        return cls(
            base_name=base_name,
            version=version,
            synopsis_signature=synopsis_signature,
            grouping_columns=tuple(sample.grouping_columns),
            entry_group_by=tuple(entry_group_by),
            conjuncts=predicate_conjuncts(predicate),
            confidence=confidence,
            describe_source=describe_source,
            frame=frame,
            support=support,
            moments=moments,
        )

    def can_finalize(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
    ) -> bool:
        """Whether this snapshot has the grouping and moments to serve."""
        if not set(group_by) <= set(self.grouping_columns):
            return False
        for aggregate in aggregates:
            if aggregate.func not in ("sum", "count", "avg"):
                return False
            if any(k not in self.moments for k in moment_keys(aggregate)):
                return False
        return True

    def finalize(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
        extra_predicate: Optional[Predicate] = None,
    ) -> RollupAnswer:
        """Roll the per-stratum states up to ``group_by`` and finalize.

        ``extra_predicate`` (conjuncts over stratification columns only)
        selects whole strata before the roll-up -- datacube slicing.
        Groups with zero qualifying sample tuples are absent, mirroring
        :func:`repro.estimators.point.estimate`.
        """
        if not self.can_finalize(group_by, aggregates):
            raise ValueError(
                f"snapshot over {self.grouping_columns} cannot finalize "
                f"GROUP BY {tuple(group_by)}"
            )
        frame = self.frame
        included = np.ones(frame.num_strata, dtype=bool)
        if extra_predicate is not None:
            included = np.asarray(
                extra_predicate.evaluate(frame.key_table), dtype=bool
            )
        idx = np.flatnonzero(included)

        # The answer groups of the included strata, renumbered densely (a
        # slice may leave some of the projection's groups without strata).
        all_targets, __, all_key_arrays = frame.projection(group_by)
        present, targets = np.unique(all_targets[idx], return_inverse=True)
        num_groups = len(present)

        support = np.zeros(num_groups, dtype=np.int64)
        np.add.at(support, targets, self.support[idx])

        finalized: Dict[str, np.ndarray] = {}
        variances: Dict[str, np.ndarray] = {}
        for key in set(
            k for aggregate in aggregates for k in moment_keys(aggregate)
        ):
            entry = self.moments[key]
            sliced = AggregateState(
                "sum", entry.state.count[idx], entry.state.total[idx]
            )
            coarse = rollup_state(sliced, targets, num_groups)
            finalized[key] = finalize_state(coarse)
            variances[key] = np.bincount(
                targets,
                weights=entry.var_contrib[idx],
                minlength=num_groups,
            )

        keep = support > 0
        values: Dict[str, np.ndarray] = {}
        halfwidths: Dict[str, np.ndarray] = {}
        scale = float(np.sqrt(1.0 - self.confidence))
        for aggregate in aggregates:
            if aggregate.func == "count":
                value = finalized[ONES_KEY]
                variance = variances[ONES_KEY]
            elif aggregate.func == "sum":
                key = moment_keys(aggregate)[0]
                value = finalized[key]
                variance = variances[key]
            else:  # avg: ratio estimator with delta-method variance
                key = moment_keys(aggregate)[0]
                num, num_var = finalized[key], variances[key]
                den, den_var = finalized[ONES_KEY], variances[ONES_KEY]
                with np.errstate(divide="ignore", invalid="ignore"):
                    value = np.where(den != 0, num / den, np.nan)
                    variance = np.where(
                        den != 0,
                        (num_var + value * value * den_var) / (den * den),
                        np.nan,
                    )
            with np.errstate(invalid="ignore"):
                half = np.where(
                    variance >= 0, np.sqrt(variance) / scale, np.nan
                )
            values[aggregate.alias] = value[keep]
            halfwidths[aggregate.alias] = half[keep]

        kept = present[keep]
        return RollupAnswer(
            group_by=tuple(group_by),
            key_arrays=tuple(column[kept] for column in all_key_arrays),
            support=support[keep],
            values=values,
            halfwidths=halfwidths,
        )


@dataclass
class RollupIndexStats:
    """Counters for the subsumption index (thread-safe snapshot)."""

    entries: int = 0
    hits: int = 0
    misses: int = 0
    registrations: int = 0
    invalidations: int = 0

    def describe(self) -> str:
        return (
            f"rollup index: entries={self.entries} hits={self.hits} "
            f"misses={self.misses} registered={self.registrations} "
            f"invalidated={self.invalidations}"
        )


@dataclass(frozen=True)
class _Match:
    """A successful subsumption lookup."""

    snapshot: ReuseSnapshot
    extra_predicate: Optional[Predicate]
    extra_conjuncts: Tuple[str, ...] = ()


class RollupIndex:
    """Bounded per-table index of :class:`ReuseSnapshot` entries.

    Entries live in an :class:`~repro.aqua.cache.LRUCache` keyed by
    ``(table, version, synopsis, predicate fingerprint, confidence)``, so
    re-registering the same logical scan replaces rather than grows, and
    :meth:`invalidate` drops a table's entries by key prefix -- which
    :class:`~repro.aqua.system.AquaSystem` does on every version bump.
    """

    def __init__(self, capacity: int = 64):
        self._entries = LRUCache(capacity)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._registrations = 0
        self._invalidations = 0

    @staticmethod
    def _key(snapshot: ReuseSnapshot) -> Tuple:
        return (
            snapshot.base_name,
            snapshot.version,
            snapshot.synopsis_signature,
            snapshot.conjuncts,
            snapshot.confidence,
        )

    def register(self, snapshot: ReuseSnapshot) -> None:
        self._entries.put(self._key(snapshot), snapshot)
        with self._lock:
            self._registrations += 1

    def lookup(
        self,
        *,
        base_name: str,
        version: int,
        synopsis_signature: Tuple,
        where: Optional[Predicate],
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
        confidence: float,
        count: bool = True,
    ) -> Optional[_Match]:
        """Find a snapshot that subsumes the probe, or ``None``.

        Prefers the candidate with the fewest extra conjuncts (an exact
        predicate match beats one that needs slicing).  ``count=False``
        probes without touching the hit/miss counters or LRU order (used
        by ``explain``).
        """
        if where is not None:
            canonical = canonicalize_predicate(where)
            parts = _split_and(canonical)
            texts = [render_predicate(part) for part in parts]
        else:
            parts, texts = [], []
        probe_set = set(texts)

        best: Optional[_Match] = None
        candidates = [
            snapshot
            for snapshot in self._entries.values()
            if snapshot.base_name == base_name
            and snapshot.version == version
            and snapshot.synopsis_signature == synopsis_signature
            and snapshot.confidence == confidence
        ]
        for snapshot in candidates:
            entry_set = set(snapshot.conjuncts)
            if not entry_set <= probe_set:
                continue
            extra = [
                (part, text)
                for part, text in zip(parts, texts)
                if text not in entry_set
            ]
            if any(
                not set(part.referenced_columns())
                <= set(snapshot.grouping_columns)
                for part, _ in extra
            ):
                continue
            if not snapshot.can_finalize(group_by, aggregates):
                continue
            if best is not None and len(best.extra_conjuncts) <= len(extra):
                continue
            best = _Match(
                snapshot=snapshot,
                extra_predicate=(
                    _conjoin([part for part, _ in extra]) if extra else None
                ),
                extra_conjuncts=tuple(text for _, text in extra),
            )
        if count:
            if best is not None:
                self._entries.get(self._key(best.snapshot))  # promote
            with self._lock:
                if best is not None:
                    self._hits += 1
                else:
                    self._misses += 1
        return best

    def invalidate(self, base_name: Optional[str] = None) -> int:
        """Drop every entry for ``base_name`` (all entries for ``None``);
        returns the count dropped."""
        dropped = self._entries.invalidate(base_name)
        with self._lock:
            self._invalidations += dropped
        return dropped

    def clear(self) -> None:
        self.invalidate()

    def stats(self) -> RollupIndexStats:
        with self._lock:
            return RollupIndexStats(
                entries=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                registrations=self._registrations,
                invalidations=self._invalidations,
            )
