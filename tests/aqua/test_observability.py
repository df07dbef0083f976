"""End-to-end observability: traced answers, pipeline metrics, overhead."""

import time

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy, Telemetry
from repro.aqua import (
    PROVENANCE_EXACT,
    PROVENANCE_REPAIRED,
    PROVENANCE_SYNOPSIS,
)
from repro.obs import MetricsRegistry
from repro.testing import FaultInjector

SQL = "select a, b, sum(q) s from rel group by a, b order by a, b"
# HAVING finalizes from the sample's moments like any other query; its
# WHERE keeps it from being a roll-up hit after SQL.
HAVING_SQL = (
    "select a, b, sum(q) s from rel where q >= 0 group by a, b "
    "having s >= 0 order by a, b"
)


@pytest.fixture
def system(skewed_table, rng):
    aqua = AquaSystem(
        space_budget=500, rng=rng, telemetry=Telemetry.enabled()
    )
    aqua.register_table("rel", skewed_table)
    return aqua


def _counter_values(snapshot, name):
    """{label tuple -> value} for one counter in a snapshot."""
    return {
        tuple(sorted(sample["labels"].items())): sample["value"]
        for sample in snapshot[name]["values"]
    }


class TestTracedAnswer:
    def test_trace_has_named_stages_summing_to_total(self, system):
        answer = system.answer(HAVING_SQL)
        trace = answer.trace
        assert trace is not None
        stage_seconds = trace.stage_seconds()
        # The acceptance bar: at least five named pipeline stages whose
        # durations account for the reported total within 10%.
        assert len(stage_seconds) >= 5
        for stage in ("parse", "validate", "moments", "finalize", "guard"):
            assert stage in stage_seconds, stage
        assert sum(stage_seconds.values()) >= 0.9 * trace.total_seconds
        assert sum(stage_seconds.values()) <= trace.total_seconds * 1.001

    def test_servable_answer_runs_the_moments_stages(self, system):
        for sql in (SQL, HAVING_SQL):
            trace = system.answer(sql).trace
            # validate first: the roll-up tier passes the same gate as a miss
            assert [span.name for span in trace.stages] == [
                "parse", "cache_probe", "validate", "rollup_probe", "moments",
                "finalize", "guard", "cache_store",
            ], sql
            stage_seconds = trace.stage_seconds()
            assert sum(stage_seconds.values()) >= 0.9 * trace.total_seconds
            assert sum(stage_seconds.values()) <= trace.total_seconds * 1.001

    def test_rollup_hit_is_validated_before_it_is_served(self, system):
        system.answer(SQL)
        trace = system.answer("select a, sum(q) s from rel group by a").trace
        assert trace.root.attributes["cache"] == "rollup"
        assert [span.name for span in trace.stages] == [
            "parse", "cache_probe", "validate", "rollup_probe", "finalize",
            "guard", "cache_store",
        ]

    def test_validate_says_whether_this_answer_walked_the_sample(
        self, system
    ):
        first = system.answer(SQL).trace.stage("validate")
        second = system.answer(
            "select a, b, sum(q) s from rel where q > 0 group by a, b"
        ).trace.stage("validate")
        assert first.attributes["structural"] == "walked"
        assert second.attributes["structural"] == "remembered"
        system.refresh_synopsis("rel")
        third = system.answer(SQL).trace.stage("validate")
        assert third.attributes["structural"] == "walked"

    def test_stages_are_ordered_and_execute_has_children(self, system):
        # A bound no answer meets: the guard falls back to an exact answer,
        # the one place an answer executes a physical plan.
        policy = GuardPolicy(max_relative_halfwidth=1e-12)
        trace = system.answer(HAVING_SQL, guard=policy).trace
        names = [span.name for span in trace.stages]
        assert names.index("parse") < names.index("validate")
        assert names.index("validate") < names.index("moments")
        assert names.index("moments") < names.index("finalize")
        assert names.index("finalize") < names.index("guard")
        descendants = []
        stack = list(trace.stage("guard").children)
        while stack:
            span = stack.pop()
            descendants.append(span.name)
            stack.extend(span.children)
        # The base-table plan runs the physical operator tree: one op_*
        # span per plan node, nested to match the tree shape.
        assert "exact_fallback" in descendants
        assert "op_scan" in descendants
        assert "op_group_by" in descendants

    def test_root_records_table_and_guard_attributes(self, system):
        trace = system.answer(SQL).trace
        assert trace.root.attributes["table"] == "rel"
        assert trace.root.attributes["guarded"] is True

    def test_total_seconds_prefers_trace(self, system):
        answer = system.answer(SQL)
        assert answer.total_seconds == answer.trace.total_seconds
        assert answer.total_seconds >= answer.elapsed_seconds

    def test_untraced_system_attaches_no_trace(self, skewed_table, rng):
        aqua = AquaSystem(space_budget=500, rng=rng)
        aqua.register_table("rel", skewed_table)
        answer = aqua.answer(SQL)
        assert answer.trace is None
        assert answer.total_seconds == answer.elapsed_seconds

    def test_trace_answer_force_enables_and_restores(self, skewed_table, rng):
        aqua = AquaSystem(space_budget=500, rng=rng)  # telemetry off
        aqua.register_table("rel", skewed_table)
        assert not aqua.tracer.enabled
        answer = aqua.trace_answer(SQL)
        assert answer.trace is not None
        assert len(answer.trace.stage_seconds()) >= 5
        assert not aqua.tracer.enabled  # restored

    def test_explain_analyze_appends_span_tree(self, system):
        text = system.explain(HAVING_SQL, analyze=True)
        assert "-- analyze:" in text
        for stage in ("answer", "parse", "moments"):
            assert stage in text


class TestAnswerMetrics:
    def test_query_counter_and_latency(self, system):
        system.answer(SQL)
        system.answer(SQL)
        snapshot = system.metrics.snapshot()
        assert _counter_values(snapshot, "aqua_queries_total") == {
            (("table", "rel"),): 2.0
        }
        latency = system.metrics.get("aqua_answer_seconds")
        assert latency.count(table="rel") == 2
        assert latency.sum(table="rel") > 0.0

    def test_stage_latency_histogram_covers_stages(self, system):
        system.answer(HAVING_SQL)
        stage_latency = system.metrics.get("aqua_stage_seconds")
        for stage in ("parse", "moments", "finalize", "guard"):
            assert stage_latency.count(stage=stage) == 1

    def test_healthy_answer_counts_synopsis_provenance(self, system):
        answer = system.answer(SQL)
        counts = _counter_values(
            system.metrics.snapshot(), "aqua_guard_groups_total"
        )
        assert counts == {
            (
                ("provenance", PROVENANCE_SYNOPSIS),
                ("table", "rel"),
            ): float(answer.result.num_rows)
        }


class TestGuardProvenanceMetrics:
    def test_truncated_stratum_counts_repaired_groups(self, system):
        FaultInjector(system).truncate_sample("rel", keep=1)
        answer = system.answer(SQL)
        assert answer.guard.counts.get(PROVENANCE_REPAIRED, 0) >= 1
        counts = _counter_values(
            system.metrics.snapshot(), "aqua_guard_groups_total"
        )
        for tag, expected in answer.guard.counts.items():
            key = (("provenance", tag), ("table", "rel"))
            assert counts[key] == float(expected)
        flagged = system.metrics.get("aqua_guard_flagged_groups_total")
        assert flagged.value(table="rel") >= 1

    def test_full_fallback_counts_exact_groups_and_fallbacks(self, system):
        policy = GuardPolicy(max_relative_halfwidth=1e-12)
        answer = system.answer(SQL, guard=policy)
        snapshot = system.metrics.snapshot()
        counts = _counter_values(snapshot, "aqua_guard_groups_total")
        key = (("provenance", PROVENANCE_EXACT), ("table", "rel"))
        assert counts[key] == float(answer.result.num_rows)
        fallbacks = system.metrics.get("aqua_guard_fallbacks_total")
        assert fallbacks.value(table="rel") == 1

    def test_provenance_counters_accumulate_across_scenarios(self, system):
        system.answer(SQL)  # healthy: all synopsis
        FaultInjector(system).empty_allocation("rel")
        system.answer(SQL)  # repaired groups
        snapshot = system.metrics.snapshot()
        counts = _counter_values(snapshot, "aqua_guard_groups_total")
        tags = {key_labels[0][1] for key_labels in counts}
        assert PROVENANCE_SYNOPSIS in tags
        assert PROVENANCE_REPAIRED in tags


class TestMaintenanceMetrics:
    def test_insert_flush_refresh_counters(self, system, skewed_table):
        row = next(iter(skewed_table.iter_rows()))
        system.insert("rel", row)
        system.insert("rel", row)
        assert system.metrics.get("aqua_inserts_total").value(
            table="rel"
        ) == 2
        assert system.metrics.get("aqua_pending_rows").value(
            table="rel"
        ) == 2
        system._flush_pending("rel")
        assert system.metrics.get("aqua_flushes_total").value(
            table="rel"
        ) == 1
        assert system.metrics.get("aqua_flushed_rows_total").value(
            table="rel"
        ) == 2
        assert system.metrics.get("aqua_pending_rows").value(
            table="rel"
        ) == 0
        system.refresh_synopsis("rel")
        refreshes = system.metrics.get("aqua_refreshes_total")
        assert refreshes.value(table="rel", trigger="manual") == 1
        assert refreshes.value(table="rel", trigger="auto") == 0

    def test_build_synopsis_records_build_time(self, system):
        builds = system.metrics.get("aqua_synopsis_build_seconds")
        assert builds.count(table="rel") == 1


class TestQueryLogAutoRecording:
    def test_every_answer_is_recorded(self, system):
        assert system.query_log("rel").total_queries == 0
        system.answer(SQL)
        system.answer("select a, sum(q) s from rel group by a")
        log = system.query_log("rel")
        assert log.total_queries == 2
        frequencies = log.grouping_frequencies()
        assert frequencies[("a", "b")] == pytest.approx(0.5)
        assert frequencies[("a",)] == pytest.approx(0.5)


class TestCompareStageBreakdown:
    def test_describe_includes_stage_timings(self, system):
        report = system.compare(HAVING_SQL)
        text = report.describe()
        assert "approx stages:" in text
        assert "parse" in text
        assert "moments" in text

    def test_speedup_uses_traced_total(self, system):
        report = system.compare(SQL)
        expected = (
            report.exact_elapsed_seconds / report.approximate.total_seconds
        )
        assert report.speedup == pytest.approx(expected)


class TestDisabledTelemetryOverhead:
    @staticmethod
    def _instrumentation_loop(tracer, counter, hist, iterations=10_000):
        start = time.perf_counter()
        for __ in range(iterations):
            with tracer.span("noop"):
                pass
            counter.inc(table="rel")
            hist.observe(0.001)
        return time.perf_counter() - start

    def test_disabled_ops_cost_less_than_enabled(self, skewed_table, rng):
        """Disabled telemetry must be the cheap path: the same 10k
        instrumentation points cost measurably less than when enabled, and
        record nothing.  (A/B on the same machine moment, so the bound is
        stable under CI load; an absolute ceiling guards against an
        accidentally-expensive disabled path.)"""
        aqua = AquaSystem(space_budget=500, rng=rng, telemetry=False)
        aqua.register_table("rel", skewed_table)
        assert not aqua.telemetry.active
        tracer = aqua.tracer
        counter = aqua.metrics.counter("noop_total", "", ("table",))
        hist = aqua.metrics.histogram("noop_seconds", "", ())

        best_disabled = best_enabled = float("inf")
        for __ in range(3):  # best-of-3 smooths scheduler noise
            disabled = self._instrumentation_loop(tracer, counter, hist)
            aqua.telemetry.enable()
            enabled = self._instrumentation_loop(tracer, counter, hist)
            aqua.telemetry.disable()
            best_disabled = min(best_disabled, disabled)
            best_enabled = min(best_enabled, enabled)

        assert best_disabled < best_enabled
        # 10k disabled (span + counter + histogram) triples in well under a
        # second: each instrumentation point is sub-microsecond-scale, so
        # the ~30 points on an answer() path are unmeasurable.
        assert best_disabled < 0.25
        aqua.metrics.reset()
        counter = aqua.metrics.counter("noop_total", "", ("table",))
        counter.inc(table="rel")
        assert aqua.metrics.snapshot() == {}  # disabled: nothing recorded

    def test_metrics_registry_snapshot_empty_when_disabled(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        assert registry.snapshot() == {}


class TestOnePassAndTestbedTelemetry:
    def test_onepass_construction_is_traced(self, skewed_table):
        from repro.maintenance import construct_one_pass

        telemetry = Telemetry.enabled()
        with telemetry.tracer.span("build") as root:
            construct_one_pass(
                "congress",
                skewed_table,
                skewed_table.schema,
                ["a", "b"],
                budget=400,
                rng=np.random.default_rng(3),
                telemetry=telemetry,
            )
        names = [span.name for span in root.children]
        assert names == ["onepass_stream", "onepass_subsample"]
        assert root.children[0].attributes["rows"] == skewed_table.num_rows
        assert telemetry.metrics.get(
            "aqua_onepass_rows_total"
        ).value(strategy="congress") == skewed_table.num_rows


class TestObservabilityWrapperOverhead:
    """PR guard: the answer() observability wrapper must stay free when off.

    The wrapper added around ``_answer_pipeline`` (trace-id reservation,
    event emission, SLO recording, audit offers) is gated on one enablement
    check per pillar.  With everything disabled the end-to-end cost of
    ``answer()`` must stay within 5% of calling the bare pipeline."""

    def test_disabled_event_log_emit_is_noop_cheap(self):
        from repro.obs.events import EventLog

        log = EventLog(enabled=False)
        start = time.perf_counter()
        for __ in range(10_000):
            log.emit(table="rel")
        elapsed = time.perf_counter() - start
        assert len(log) == 0
        assert elapsed < 0.25  # one attribute check per call

    @pytest.mark.timing
    def test_disabled_overhead_within_five_percent(self, skewed_table, rng):
        aqua = AquaSystem(
            space_budget=500, rng=rng, telemetry=False, cache=False
        )
        aqua.register_table("rel", skewed_table)
        assert not aqua.telemetry.active
        assert aqua.auditor is None and aqua.slo is None
        sql = "SELECT a, SUM(q) AS s FROM rel GROUP BY a"
        tracer = aqua.telemetry.tracer

        def bare(n):
            start = time.perf_counter()
            for __ in range(n):
                root = tracer.span("answer")
                with root:
                    aqua._answer_pipeline(sql, None, tracer, root)
            return time.perf_counter() - start

        def wrapped(n):
            start = time.perf_counter()
            for __ in range(n):
                aqua.answer(sql)
            return time.perf_counter() - start

        bare(3), wrapped(3)  # warm caches/JIT'd numpy paths
        best_bare = min(bare(10) for __ in range(5))
        best_wrapped = min(wrapped(10) for __ in range(5))
        # Same-moment A/B with best-of-5 smooths CI scheduler noise; the
        # absolute floor guards the ratio against sub-microsecond bases.
        assert best_wrapped <= max(1.05 * best_bare, best_bare + 0.005)
