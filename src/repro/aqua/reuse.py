"""The roll-up tier: per-stratum moments reused across queries.

Every approximate answer is finalized from the sample's per-cell
expansion moments (:class:`~repro.estimators.moments.SampleMoments`,
masked by the query's WHERE); :func:`lay_out` turns the finalized arrays
into the answer table.  A :class:`ReuseSnapshot` is those moments with
the data version and synopsis they were computed from.

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
* the snapshot's cells are strata and the probe's ``GROUP BY`` is a
  subset of the stratification columns (each stratum then lies wholly
  inside one answer group);
* the probe's canonical WHERE conjuncts are a superset of the entry's:
  the entry predicate covers at least the probe's rows, and every
  *extra* probe conjunct references only stratification columns, so it
  is constant per stratum and selects whole strata (datacube slicing);
* every probe aggregate's input has moments in the snapshot.

Bit-identity: the miss path and the roll-up tier share one finalize step
(``AquaSystem._serve_moments``), so two routes to the same coarse answer
agree bit-for-bit, which the Hypothesis suite in
``tests/aqua/test_reuse_properties.py`` asserts.

Degraded and streaming answers never register snapshots (they do not
represent a completed synopsis scan at a single version).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import Aggregate
from ..engine.predicates import Predicate
from ..engine.query import Query
from ..engine.schema import Column, ColumnType, Schema
from ..engine.table import Table
from ..estimators.moments import SampleMoments
from ..plan.optimizer import _conjoin
from .cache import LRUCache

__all__ = [
    "ReuseSnapshot",
    "RollupIndex",
    "RollupIndexStats",
    "lay_out",
]


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
    if query.having is None and not query.order_by and query.limit is None:
        return result, order
    if query.having is not None:
        order = np.flatnonzero(query.having.evaluate(result))
    if query.order_by:
        order = order[result.take(order).sort_order(query.order_by)]
    if query.limit is not None:
        order = order[: query.limit]
    return result.take(order), order


@dataclass(frozen=True)
class ReuseSnapshot:
    """One answered query's sample moments, with what they were read from.

    When the cells are strata (:attr:`SampleMoments.strata_cells`) the
    moments are finer-grained than any probe the index matches: they are
    masked by the entry query's WHERE only (not by its GROUP BY), so one
    snapshot serves every coarser grouping and every whole-strata slice.
    ``conjuncts`` is the rendered text of that WHERE's canonical conjuncts.
    """

    base_name: str
    version: int
    synopsis_signature: Tuple
    conjuncts: FrozenSet[str]
    confidence: float
    describe_source: str
    moments: SampleMoments


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
        conjuncts: Sequence[Tuple[Predicate, str]],
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
        confidence: float,
        count: bool = True,
    ) -> Optional[_Match]:
        """Find a snapshot that subsumes the probe, or ``None``.

        ``conjuncts`` are the probe WHERE's canonical conjuncts with their
        texts (:func:`~repro.plan.canonical.split_conjuncts`).  Prefers the
        candidate with the fewest extra conjuncts (an exact predicate match
        beats one that needs slicing), then the first in LRU order.
        ``count=False`` probes without touching the hit/miss counters or
        LRU order (used by ``explain``).
        """
        probe = {text for _, text in conjuncts}
        best: Optional[_Match] = None
        for snapshot in self._entries.values():
            if not (
                snapshot.conjuncts <= probe  # the most selective test first
                and snapshot.base_name == base_name
                and snapshot.version == version
                and snapshot.synopsis_signature == synopsis_signature
                and snapshot.confidence == confidence
            ):
                continue
            extra = [
                (part, text)
                for part, text in conjuncts
                if text not in snapshot.conjuncts
            ]
            grouping = set(snapshot.moments.frame.grouping_columns)
            if any(
                not set(part.referenced_columns()) <= grouping
                for part, _ in extra
            ):
                continue
            if not snapshot.moments.can_finalize(group_by, aggregates):
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
