"""Answer-cache correctness: invalidation, degraded answers, counters."""

import numpy as np
import pytest

from repro.aqua import AnswerCache, AquaSystem, CacheStats, GuardPolicy
from repro.engine import Column, ColumnType, Schema, Table
from tests.lru_contract import LRUContract

SQL = "SELECT g, SUM(v) AS s FROM t GROUP BY g"


def _table(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table(
        schema,
        {
            "g": rng.choice(["a", "b", "c"], size=n),
            "v": rng.normal(100.0, 10.0, size=n),
        },
    )


def _system(**kwargs):
    system = AquaSystem(
        space_budget=300, rng=np.random.default_rng(9), **kwargs
    )
    system.register_table("t", _table())
    return system


class TestCacheHits:
    def test_repeated_identical_sql_hits(self):
        system = _system()
        first = system.answer(SQL)
        second = system.answer(SQL)
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        np.testing.assert_array_equal(
            first.result.column("s"), second.result.column("s")
        )

    def test_normalized_plan_shares_entry(self):
        """Different SQL spellings of the same plan share a cache entry."""
        system = _system()
        system.answer("select g, sum(v) s from t group by g")
        system.answer("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (1, 1)

    def test_different_queries_miss(self):
        system = _system()
        system.answer(SQL)
        system.answer("SELECT g, AVG(v) AS s FROM t GROUP BY g")
        assert system.answer_cache.stats.hits == 0

    def test_different_guard_policies_do_not_share(self):
        system = _system()
        system.answer(SQL)
        system.answer(SQL, guard=GuardPolicy(min_group_support=1))
        system.answer(SQL, guard=False)
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (0, 3)

    def test_cached_answer_carries_fresh_trace(self):
        system = _system(telemetry=True)
        system.answer(SQL)
        hit = system.answer(SQL)
        assert hit.trace is not None
        assert hit.trace.root.attributes.get("cache") == "exact"


class TestCacheInvalidation:
    def test_insert_invalidates(self):
        system = _system()
        system.answer(SQL)
        system.insert("t", ("a", 50.0))
        system.answer(SQL)
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (0, 2)

    def test_refresh_invalidates(self):
        system = _system()
        system.answer(SQL)
        system.refresh_synopsis("t")
        system.answer(SQL)
        assert system.answer_cache.stats.hits == 0

    def test_reregistration_invalidates(self):
        system = _system()
        system.answer(SQL)
        version = system.table_version("t")
        system.register_table("t", _table(seed=4), ["g"])
        assert system.table_version("t") > version
        system.answer(SQL)
        assert system.answer_cache.stats.hits == 0

    def test_version_monotonic_across_mutations(self):
        system = _system()
        seen = [system.table_version("t")]
        system.insert("t", ("a", 1.0))
        seen.append(system.table_version("t"))
        system.exact(SQL)  # flushes the pending row
        seen.append(system.table_version("t"))
        system.refresh_synopsis("t")
        seen.append(system.table_version("t"))
        assert seen == sorted(set(seen)), f"versions not monotonic: {seen}"

    def test_hit_resumes_after_invalidation(self):
        system = _system()
        system.answer(SQL)
        system.insert("t", ("b", 1.0))
        system.answer(SQL)
        system.answer(SQL)
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (1, 2)


class TestDegradedAnswersNeverCached:
    def test_exact_fallback_not_cached(self):
        # Impossible support threshold: every group fails, guard escalates
        # to the full exact fallback -- a degraded answer.
        policy = GuardPolicy(
            min_group_support=10**9, max_repair_fraction=0.0
        )
        system = _system(guard_policy=policy)
        first = system.answer(SQL)
        assert first.guard is not None and first.guard.degraded
        second = system.answer(SQL)
        assert second.guard is not None and second.guard.degraded
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (0, 2)
        assert stats.size == 0

    def test_repaired_answer_not_cached(self):
        policy = GuardPolicy(min_group_support=10**9, max_repair_fraction=1.0)
        system = _system(guard_policy=policy)
        answer = system.answer(SQL)
        assert answer.guard is not None and answer.guard.degraded
        assert len(system.answer_cache) == 0

    def test_clean_guarded_answer_is_cached(self):
        system = _system(guard_policy=GuardPolicy(min_group_support=1))
        answer = system.answer(SQL)
        assert answer.guard is not None and not answer.guard.degraded
        assert len(system.answer_cache) == 1


class TestCountersAgree:
    def test_obs_counters_match_stats(self):
        system = _system(telemetry=True)
        system.answer(SQL)
        system.answer(SQL)
        system.answer(SQL)
        system.answer("SELECT g, COUNT(*) AS c FROM t GROUP BY g")
        stats = system.answer_cache.stats
        assert (stats.hits, stats.misses) == (2, 2)
        text = system.metrics.to_prometheus()
        assert f"aqua_answer_cache_hits_total {stats.hits}" in text
        assert f"aqua_answer_cache_misses_total {stats.misses}" in text

    def test_stats_describe(self):
        stats = CacheStats(hits=3, misses=1, evictions=0, size=2, capacity=8)
        assert stats.hit_rate == 0.75
        assert "3 hits / 1 misses" in stats.describe()


class TestCacheMechanics(LRUContract):
    prefix = "aqua_answer_cache"

    def make(self, capacity, metrics=None):
        return AnswerCache(capacity, metrics)

    def test_system_cache_configuration(self):
        assert _system(cache=False).answer_cache is None
        assert _system(cache=7).answer_cache.capacity == 7
        shared = AnswerCache(capacity=3)
        assert _system(cache=shared).answer_cache is shared

    def test_set_cache_runtime(self):
        system = _system()
        system.answer(SQL)
        system.set_cache(False)
        assert system.answer_cache is None
        system.answer(SQL)  # runs uncached, no error
        system.set_cache(16)
        assert system.answer_cache.capacity == 16
        system.answer(SQL)
        system.answer(SQL)
        assert system.answer_cache.stats.hits == 1


class TestCachedBounds:
    """A cache hit is indistinguishable from recomputation: the stored
    answer keeps the original error bounds and guard provenance."""

    def test_cached_answer_carries_original_error_bounds(self):
        system = _system()
        first = system.answer(SQL)
        hit = system.answer(SQL)
        assert system.answer_cache.stats.hits == 1
        np.testing.assert_array_equal(
            first.result.column("s_error"), hit.result.column("s_error")
        )
        errors = hit.result.column("s_error")
        assert np.all(np.isfinite(errors)) and np.all(errors > 0.0)
        assert hit.confidence == first.confidence

    def test_cached_answer_keeps_provenance_and_guard(self):
        system = _system()
        first = system.answer(SQL)
        hit = system.answer(SQL)
        assert hit.guard is not None
        assert hit.provenance_counts == first.provenance_counts
        np.testing.assert_array_equal(
            first.result.column("provenance"),
            hit.result.column("provenance"),
        )

    def test_bounds_recomputed_after_invalidation(self):
        """After an insert the cache misses and bounds come from the new
        synopsis state -- never from the stale entry."""
        system = _system()
        before = system.answer(SQL)
        system.insert("t", ("a", 10_000.0))
        after = system.answer(SQL)
        assert system.answer_cache.stats.hits == 0
        assert before.result.num_rows == after.result.num_rows
