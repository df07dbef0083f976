"""The plan cache: LRU contract, and its use inside AquaSystem."""

import pytest

from repro.aqua import AquaSystem
from repro.aqua.cache import LRUCache
from repro.obs import Telemetry
from tests.lru_contract import LRUContract


class TestPlanCacheUnit(LRUContract):
    prefix = "aqua_plan_cache"

    def make(self, capacity, metrics=None):
        return LRUCache(capacity, metrics, prefix=self.prefix)


SQL = "select a, sum(q) s from rel group by a order by a"


class TestSystemIntegration:
    @pytest.fixture
    def system(self, skewed_table, rng):
        aqua = AquaSystem(
            space_budget=500, rng=rng, telemetry=Telemetry.enabled()
        )
        # The answer cache would serve repeats before planning; turn it
        # off so repeated queries actually exercise the plan cache.
        aqua.set_cache(False)
        aqua.register_table("rel", skewed_table)
        return aqua

    def test_default_system_has_a_plan_cache(self, system):
        assert isinstance(system.plan_cache, LRUCache)

    def test_second_answer_hits(self, system):
        system.answer(SQL)
        before = system.plan_cache.stats
        system.answer(SQL)
        after = system.plan_cache.stats
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_hit_recorded_on_plan_optimize_span(self, system):
        system.answer(SQL)
        trace = system.answer(SQL).trace
        assert trace.stage("plan_optimize").attributes["cache"] == "hit"

    def test_different_queries_miss(self, system):
        system.answer(SQL)
        misses = system.plan_cache.stats.misses
        system.answer("select b, sum(q) s from rel group by b")
        assert system.plan_cache.stats.misses == misses + 1

    def test_version_keying_invalidates_on_refresh(self, system):
        system.answer(SQL)
        system.refresh_synopsis("rel")
        misses = system.plan_cache.stats.misses
        system.answer(SQL)  # same SQL, new data version -> new key
        assert system.plan_cache.stats.misses == misses + 1

    def test_cached_plan_answers_identically(self, system):
        first = system.answer(SQL).result
        second = system.answer(SQL).result  # via cached plan
        assert first == second

    def test_metrics_exported(self, system):
        system.answer(SQL)
        system.answer(SQL)
        text = system.metrics.to_prometheus()
        assert "aqua_plan_cache_hits_total" in text
        assert "aqua_plan_cache_misses_total" in text
