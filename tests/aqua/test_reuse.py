"""Roll-up subsumption: serving rules, invalidation, tier surfacing."""

import io

import numpy as np
import pytest

from repro.aqua import AquaSystem, GuardPolicy
from repro.aqua.cli import AquaShell
from repro.aqua.guard import PROVENANCE_ROLLUP
from repro.aqua.reuse import RollupIndex
from repro.engine import Column, ColumnType, Schema, Table

FINE = (
    "SELECT g, h, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS m "
    "FROM t GROUP BY g, h"
)
COARSE = (
    "SELECT g, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS m FROM t GROUP BY g"
)


def _table(n=3000, seed=11):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c", "d"], size=n),
        h=rng.choice(["x", "y"], size=n),
        v=rng.gamma(2.0, 40.0, size=n),
    )


def _system(seed=11, **kwargs):
    system = AquaSystem(
        space_budget=600, rng=np.random.default_rng(seed), **kwargs
    )
    system.register_table("t", _table(seed=seed), grouping_columns=["g", "h"])
    return system


class TestRollupServing:
    def test_coarse_query_served_from_fine_snapshot(self):
        system = _system()
        system.answer(FINE)
        answer = system.answer(COARSE)
        assert answer.cache_tier == "rollup"
        assert "GROUP BY (g, h)" in answer.reused_from
        assert system.rollup_index.stats().hits == 1

    def test_rollup_hit_registers_nothing(self):
        # only a freshly computed snapshot is registered; a hit serves
        # one that is already in the index
        system = _system()
        system.answer(FINE)
        assert system.rollup_index.stats().registrations == 1
        assert system.answer(COARSE).cache_tier == "rollup"
        assert system.rollup_index.stats().registrations == 1

    def test_rollup_matches_direct_answer_bit_for_bit(self):
        served = _system()
        served.answer(FINE)
        rollup = served.answer(COARSE)
        direct = _system().answer(COARSE)
        assert rollup.cache_tier == "rollup"
        assert direct.cache_tier is None
        for alias in ("s", "c", "m"):
            np.testing.assert_array_equal(
                rollup.result.column(alias), direct.result.column(alias)
            )
            np.testing.assert_array_equal(
                rollup.result.column(f"{alias}_error"),
                direct.result.column(f"{alias}_error"),
            )

    def test_whole_strata_slice_is_served(self):
        system = _system()
        system.answer(FINE)
        answer = system.answer(
            "SELECT g, SUM(v) AS s FROM t WHERE h = 'x' GROUP BY g"
        )
        assert answer.cache_tier == "rollup"
        assert "sliced by (h = 'x')" in answer.reused_from

    def test_non_stratification_slice_recomputes(self):
        system = _system()
        system.answer(FINE)
        answer = system.answer(
            "SELECT g, SUM(v) AS s FROM t WHERE v > 10 GROUP BY g"
        )
        assert answer.cache_tier is None

    def test_entry_predicate_must_cover_probe(self):
        # The snapshot's own WHERE must be a subset of the probe's
        # conjuncts -- a *narrower* probe predicate cannot be served.
        system = _system()
        system.answer(
            "SELECT g, h, SUM(v) AS s FROM t WHERE h = 'x' GROUP BY g, h"
        )
        answer = system.answer(COARSE)
        assert answer.cache_tier is None

    def test_avg_served_from_sum_and_count_moments(self):
        system = _system()
        system.answer("SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h")
        answer = system.answer("SELECT g, AVG(v) AS m FROM t GROUP BY g")
        assert answer.cache_tier == "rollup"

    def test_rollup_answer_is_cached_for_replay(self):
        system = _system()
        system.answer(FINE)
        first = system.answer(COARSE)
        second = system.answer(COARSE)
        assert first.cache_tier == "rollup"
        assert second.cache_tier == "exact"
        assert system.answer_cache.stats.rollup_hits == 1

    def test_provenance_column_is_retagged(self):
        system = _system()
        system.answer(FINE)
        answer = system.answer(COARSE)
        tags = set(np.asarray(answer.result.column("provenance")).tolist())
        assert tags == {PROVENANCE_ROLLUP}
        assert answer.guard is not None and not answer.guard.degraded

    def test_guard_policy_applies_to_rollup_answers(self):
        system = _system()
        system.answer(FINE)
        answer = system.answer(
            COARSE, guard=GuardPolicy(min_group_support=1)
        )
        assert answer.cache_tier == "rollup"
        assert answer.guard is not None


class TestExclusions:
    def test_cache_false_disables_reuse_too(self):
        system = _system(cache=False)
        assert system.rollup_index is None
        system.answer(FINE)
        assert system.answer(COARSE).cache_tier is None

    def test_set_cache_false_drops_reuse(self):
        system = _system()
        system.answer(FINE)
        system.set_cache(False)
        assert system.rollup_index is None
        assert system.answer(COARSE).cache_tier is None

    def test_degraded_answers_never_register_snapshots(self):
        system = _system(
            guard_policy=GuardPolicy(
                min_group_support=10**9, max_repair_fraction=0.0
            )
        )
        fine = system.answer(FINE)
        assert fine.guard is not None and fine.guard.degraded
        assert system.rollup_index.stats().registrations == 0
        assert system.answer(COARSE).cache_tier is None

    def test_budgeted_answers_bypass_the_rollup_tier(self):
        system = _system()
        system.build_portfolio("t")
        system.answer(FINE)
        answer = system.answer(COARSE, max_rel_error=1e9)
        assert answer.cache_tier is None


class TestInvalidation:
    def test_insert_drops_snapshots(self):
        system = _system()
        system.answer(FINE)
        assert system.rollup_index.stats().entries == 1
        system.insert("t", ("a", "x", 5.0))
        assert system.rollup_index.stats().entries == 0
        assert system.answer(COARSE).cache_tier is None

    def test_refresh_drops_snapshots(self):
        system = _system()
        system.answer(FINE)
        system.refresh_synopsis("t")
        assert system.rollup_index.stats().entries == 0
        assert system.answer(COARSE).cache_tier is None

    def test_reregistration_drops_snapshots(self):
        system = _system()
        system.answer(FINE)
        system.register_table("t", _table(seed=12), ["g", "h"])
        assert system.rollup_index.stats().entries == 0
        assert system.answer(COARSE).cache_tier is None

    def test_snapshots_resume_after_mutation(self):
        system = _system()
        system.answer(FINE)
        system.insert("t", ("a", "x", 5.0))
        system.answer(FINE)
        assert system.answer(COARSE).cache_tier == "rollup"


class TestSurfacing:
    def test_event_carries_tier_and_source(self):
        system = _system(telemetry=True)
        system.answer(FINE)
        system.answer(COARSE)
        event = system.telemetry.events.tail(1)[0]
        assert event.cache_tier == "rollup"
        assert "GROUP BY (g, h)" in event.reused_from
        assert "rollup" in event.to_json()

    def test_explain_reports_the_tier(self):
        system = _system()
        system.answer(FINE)
        text = system.explain(COARSE)
        assert "-- cache: rollup (from " in text
        system.answer(COARSE)
        assert "-- cache: exact" in system.explain(COARSE)

    def test_explain_reports_no_rollup_that_answer_would_not_use(self):
        # answer() appends the unselected GROUP BY column g for its stages,
        # so the roll-up tier serves the query: explain promises exactly
        # the tier answer() then takes.
        system = _system()
        system.answer("SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h")
        sql = "SELECT SUM(v) AS s FROM t GROUP BY g"
        text = system.explain(sql)
        assert "-- cache: rollup (from t@v" in text
        assert system.answer(sql).cache_tier == "rollup"
        assert "-- cache: exact" in system.explain(sql)

    def test_explain_probe_leaves_counters_alone(self):
        system = _system()
        system.answer(FINE)
        before = system.rollup_index.stats()
        system.explain(COARSE)
        after = system.rollup_index.stats()
        assert (before.hits, before.misses) == (after.hits, after.misses)

    def test_compare_describe_mentions_the_tier(self):
        system = _system()
        system.answer(FINE)
        report = system.compare(COARSE)
        text = report.describe()
        assert "cache tier rollup" in text
        assert "GROUP BY (g, h)" in text

    def test_shell_cache_shows_tier_breakdown(self):
        system = _system()
        system.answer(FINE)
        system.answer(COARSE)
        system.answer(COARSE)
        out = io.StringIO()
        AquaShell(system, out=out).execute_line(".cache")
        text = out.getvalue()
        assert "tiers: exact=1 canonical=0 rollup=1" in text
        assert "rollup index: entries=1 hits=1" in text

    def test_shell_events_flag_the_tier(self):
        system = _system(telemetry=True)
        system.answer(FINE)
        system.answer(COARSE)
        out = io.StringIO()
        AquaShell(system, out=out).execute_line(".events")
        assert "cache:rollup" in out.getvalue()

    def test_metrics_count_semantic_hits_by_tier(self):
        system = _system(telemetry=True)
        system.answer(FINE)
        system.answer(COARSE)
        system.answer(COARSE)
        text = system.metrics.to_prometheus()
        assert 'aqua_answer_cache_semantic_hits_total{tier="rollup"} 1' in text
        assert 'aqua_answer_cache_semantic_hits_total{tier="exact"} 1' in text


class TestRollupIndexMechanics:
    def test_capacity_bounds_and_lru(self):
        system = _system()
        system.answer(FINE)
        system.answer(
            "SELECT g, h, SUM(v) AS s FROM t WHERE v > 10 GROUP BY g, h"
        )
        fine, filtered = system.rollup_index._entries.values()
        index = RollupIndex(capacity=1)
        index.register(fine)
        index.register(filtered)
        assert index.stats().entries == 1
        assert index._entries.values() == [filtered]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RollupIndex(capacity=0)

    def test_stats_describe(self):
        stats = RollupIndex().stats()
        assert "rollup index: entries=0" in stats.describe()
