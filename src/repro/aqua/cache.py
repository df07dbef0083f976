"""The one bounded LRU store behind every cache tier.

:class:`LRUCache` is an ``OrderedDict`` under one re-entrant lock with
hit/miss/eviction counters, optionally mirrored to
``<prefix>_{hits,misses,evictions}_total``.  Every memo in the middleware
stores its entries in one: the answer cache (:class:`AnswerCache`, below),
the optimized-plan cache (``AquaSystem.plan_cache``, prefix
``aqua_plan_cache``), the roll-up index
(:class:`~repro.aqua.reuse.RollupIndex`) and the portfolio's budget
resolutions (:class:`~repro.aqua.portfolio.SynopsisPortfolio`).

Correctness is carried by the key, not by eviction: callers put the base
table's *data version* in every key, and
:class:`~repro.aqua.system.AquaSystem` advances that version on every
mutation (insert, pending-row flush, synopsis build/refresh, portfolio
build, re-registration) and drops the table's entries from every store
in the same step, so nothing built for older data is served or kept.

:class:`AnswerCache` memoizes whole
:class:`~repro.aqua.system.ApproximateAnswer` objects:

* the query is keyed by its alias-insensitive *canonical fingerprint*
  (:func:`repro.plan.canonicalize_query`), so semantically equivalent
  spellings -- reordered conjuncts, renamed output aliases, permuted
  GROUP BY columns -- share one entry, which the system reconciles back
  to the probe's spelling on a hit;
* serve-time knobs that change the answer (guard policy thresholds,
  confidence, bound method) are folded into the key as a fingerprint;
* guard-*degraded* answers (repairs, exact fallbacks, dropped groups) are
  never stored: a degraded answer reflects transient synopsis trouble and
  must not be replayed as a clean one.

Its semantic tier attribution (``exact`` / ``canonical`` / ``rollup``,
recorded by the system's tier ladder via :meth:`AnswerCache.record_tier_hit`)
is mirrored to ``aqua_answer_cache_semantic_hits_total{tier=...}``.  See
``docs/CACHING.md`` for the tier ladder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, Hashable, List, Optional

from ..obs import MetricsRegistry

__all__ = ["AnswerCache", "CacheStats", "LRUCache", "LRUStats"]


@dataclass(frozen=True)
class LRUStats:
    """Cumulative counters of one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"{self.size}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.evictions} evicted"
        )


@dataclass(frozen=True)
class CacheStats(LRUStats):
    """Answer-cache counters, with semantic tier attribution.

    ``hits``/``misses`` count lookups against the entry map;
    ``exact_hits``/``canonical_hits``/``rollup_hits`` attribute served
    answers to the semantic tier that produced them (roll-up hits are
    map *misses* served from the subsumption index, so
    ``hits + rollup_hits`` is the total served without recomputation).
    """

    exact_hits: int = 0
    canonical_hits: int = 0
    rollup_hits: int = 0

    @property
    def semantic_hit_rate(self) -> float:
        """Answers served by any tier over all lookups."""
        total = self.hits + self.misses
        return (self.hits + self.rollup_hits) / total if total else 0.0

    def describe(self) -> str:
        return (
            f"answer cache: {super().describe()}\n"
            f"tiers: exact={self.exact_hits} "
            f"canonical={self.canonical_hits} rollup={self.rollup_hits} "
            f"({self.semantic_hit_rate:.0%} served without recomputation)"
        )


class LRUCache:
    """A bounded, thread-safe least-recently-used map.

    Keys are opaque hashables built by the caller; by convention the
    first element of a tuple key is the base table's name, which is what
    :meth:`invalidate` matches.  ``get`` promotes and counts; ``peek``
    does neither; ``put`` evicts the least-recently-used entry once
    ``capacity`` is exceeded.  Every entry-map access (including the LRU
    promotion that makes even ``get`` a write) runs under one lock, since
    serving workers share each cache.  Values are treated as immutable by
    all callers.
    """

    def __init__(
        self,
        capacity: int,
        metrics: Optional[MetricsRegistry] = None,
        prefix: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._metrics = metrics
        self._prefix = prefix
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def attach_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        """(Re)bind the registry the cache mirrors its counters into."""
        self._metrics = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable):
        """The cached value for ``key`` (promoted to most-recent), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._count("hits")
            return entry

    def peek(self, key: Hashable):
        """The cached value for ``key`` without counting or promoting."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value) -> None:
        """Store ``value``, evicting the LRU entry when over capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                self._count("evictions")

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop entries (all, or those whose key starts with ``table``).

        Every version bump calls it for the bumped table, so stale entries
        free what they hold at once; returns the number of entries dropped.
        """
        with self._lock:
            if table is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] == table
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> int:
        """Drop every entry; returns the number dropped."""
        return self.invalidate()

    def values(self) -> List[object]:
        """A snapshot of the stored values, least-recently-used first."""
        with self._lock:
            return list(self._entries.values())

    @property
    def stats(self) -> LRUStats:
        with self._lock:
            return LRUStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def _count(self, outcome: str) -> None:
        if self._prefix is None:
            return
        if self._metrics is None or not self._metrics.enabled:
            return
        self._metrics.counter(
            f"{self._prefix}_{outcome}_total",
            "Cache lookups by outcome (see repro.aqua.cache).",
        ).inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self)}/{self.capacity})"


class AnswerCache(LRUCache):
    """The answer-cache tier: an :class:`LRUCache` plus tier counters.

    Keys are built by :meth:`AquaSystem._cache_key`: ``(table, version,
    canonical fingerprint, policy fingerprint, ...)``.
    """

    def __init__(
        self,
        capacity: int = 128,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(capacity, metrics, prefix="aqua_answer_cache")
        self._tier_hits: Dict[str, int] = {}

    def record_tier_hit(self, tier: str) -> None:
        """Attribute one served answer to a semantic tier.

        ``tier`` is ``"exact"``, ``"canonical"``, or ``"rollup"``;
        mirrored to ``aqua_answer_cache_semantic_hits_total{tier=...}``
        when a metrics registry is attached.
        """
        with self._lock:
            self._tier_hits[tier] = self._tier_hits.get(tier, 0) + 1
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.counter(
                "aqua_answer_cache_semantic_hits_total",
                "Answers served without recomputation, by semantic tier "
                "(exact/canonical/rollup).",
                ("tier",),
            ).inc(tier=tier)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                **asdict(super().stats),
                exact_hits=self._tier_hits.get("exact", 0),
                canonical_hits=self._tier_hits.get("canonical", 0),
                rollup_hits=self._tier_hits.get("rollup", 0),
            )
