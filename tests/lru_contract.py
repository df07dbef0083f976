"""The LRU contract every cache tier's store honours.

One :class:`~repro.aqua.cache.LRUCache` backs the answer cache, the plan
cache, the roll-up index and the portfolio's resolutions.
:class:`LRUContract` states its behaviour once; each store configuration
runs it by subclassing and naming its factory and metric prefix:

* ``tests/aqua/test_lru.py`` -- the plain store (roll-up index, portfolio);
* ``tests/plan/test_cache.py`` -- the plan cache (prefix ``aqua_plan_cache``);
* ``tests/aqua/test_cache.py`` -- :class:`~repro.aqua.cache.AnswerCache`.
"""

import threading
from typing import Optional

import pytest

from repro.obs import MetricsRegistry

THREADS = 8
OPS = 200


class LRUContract:
    """Mixin: set ``prefix`` and define ``make(capacity, metrics=None)``."""

    prefix: Optional[str] = None

    def make(self, capacity, metrics=None):  # pragma: no cover - abstract
        raise NotImplementedError

    def test_capacity_validated(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                self.make(capacity)

    def test_miss_then_hit(self):
        cache = self.make(4)
        assert cache.get(("t", 1)) is None
        cache.put(("t", 1), "a")
        assert cache.get(("t", 1)) == "a"
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.hit_rate) == (1, 1, 0.5)

    def test_lru_eviction_order(self):
        cache = self.make(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # promote a; b is now least-recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert (cache.get("a"), cache.get("c")) == (1, 3)
        assert cache.stats.evictions == 1
        assert cache.values() == [1, 3]

    def test_put_same_key_replaces_without_evicting(self):
        cache = self.make(1)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert cache.stats.evictions == 0

    def test_peek_neither_counts_nor_promotes(self):
        cache = self.make(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.put("c", 3)  # a stayed least-recent, so it goes
        assert cache.peek("a") is None

    def test_invalidate_by_table_prefix(self):
        cache = self.make(8)
        cache.put(("t", 0, "sql-a"), 1)
        cache.put(("t", 1, "sql-b"), 2)
        cache.put(("u", 0, "sql-a"), 3)
        assert cache.invalidate("t") == 2
        assert cache.invalidate("missing") == 0
        assert cache.get(("u", 0, "sql-a")) == 3

    def test_invalidate_all(self):
        cache = self.make(8)
        cache.put("a", 1)
        cache.put(("t", 0), 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        cache.put("b", 3)
        assert cache.clear() == 1
        assert cache.values() == []

    def test_metrics_mirroring(self):
        registry = MetricsRegistry(enabled=True)
        cache = self.make(1, registry)
        cache.get("k")  # miss
        cache.put("k", 1)
        cache.get("k")  # hit
        cache.put("other", 2)  # evicts k
        if self.prefix is None:
            assert registry.snapshot() == {}
            return
        for outcome in ("hits", "misses", "evictions"):
            assert registry.get(f"{self.prefix}_{outcome}_total").value() == 1

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        cache = self.make(4, registry)
        cache.get("k")
        cache.put("k", 1)
        assert registry.snapshot() == {}

    def test_describe(self):
        cache = self.make(8)
        cache.put("k", 1)
        cache.get("k")
        text = cache.stats.describe()
        assert "1/8 entries" in text
        assert "1 hits / 0 misses" in text

    def test_counters_stay_exact_under_contention(self):
        cache = self.make(8)

        def worker(k):
            for i in range(OPS):
                key = ("t", i % 4, "sql")
                if cache.get(key) is None:
                    cache.put(key, object())

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats
        assert stats.hits + stats.misses == THREADS * OPS
        assert stats.size <= 8
