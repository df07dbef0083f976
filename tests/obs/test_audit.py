"""The accuracy auditor: sampling, version guards, verdicts, wiring."""

import numpy as np
import pytest

from repro.aqua.system import AquaSystem
from repro.engine.schema import Column, ColumnType, Schema
from repro.engine.table import Table
from repro.obs.audit import (
    AccuracyAuditor,
    AuditConfig,
    SKIP_DEGRADED,
    SKIP_QUEUE_FULL,
    SKIP_VERSION_MISMATCH,
)
from repro.obs.slo import SLOMonitor
from repro.serve.deadline import ManualClock
from repro.testing.faults import AnswerTamper, FaultInjector

SQL = "SELECT g, SUM(v) AS s FROM t GROUP BY g"


def _system(budget=2000, cache=True):
    rng = np.random.default_rng(7)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    system = AquaSystem(
        space_budget=budget,
        rng=np.random.default_rng(11),
        telemetry=True,
        cache=cache,
    )
    system.register_table(
        "t",
        Table(
            schema,
            {
                "g": rng.choice(["a", "b", "c", "d"], size=4000),
                "v": rng.exponential(10.0, size=4000),
            },
        ),
    )
    system.enable_maintenance("t")
    return system


def _auditor(system, fraction=1.0, slo=None, **kwargs):
    auditor = AccuracyAuditor(
        system,
        AuditConfig(sample_fraction=fraction, **kwargs),
        slo=slo,
        rng=np.random.default_rng(5),
        background=False,
    )
    system.attach_auditor(auditor)
    return auditor


class TestSampling:
    def test_fraction_zero_never_samples(self):
        system = _system()
        auditor = _auditor(system, fraction=0.0)
        for _ in range(5):
            system.answer(SQL)
        assert auditor.pending == 0
        assert auditor.stats.offered == 5
        assert auditor.stats.sampled == 0

    def test_fraction_one_samples_everything(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        for _ in range(3):
            system.answer(SQL)
        assert auditor.pending == 3

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            AuditConfig(sample_fraction=1.5)

    def test_queue_full_skips_instead_of_blocking(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0, max_queue=2)
        for _ in range(5):
            system.answer(SQL)
        stats = auditor.stats
        assert auditor.pending == 2
        assert stats.skipped[SKIP_QUEUE_FULL] == 3

    def test_audit_false_suppresses_the_offer(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL, audit=False)
        assert auditor.pending == 0
        assert auditor.stats.offered == 0


class TestDegradedAnswers:
    def test_guard_degraded_answers_are_never_offered(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        FaultInjector(system).corrupt_scale_factor("t")
        answer = system.answer(SQL)
        assert answer.guard is not None and answer.guard.degraded
        assert auditor.pending == 0

    def test_direct_offer_of_degraded_answer_is_skipped(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        FaultInjector(system).corrupt_scale_factor("t")
        answer = system.answer(SQL)
        from repro.engine.sql import parse_query

        assert auditor.offer(parse_query(SQL), answer, None) is False
        assert auditor.stats.skipped[SKIP_DEGRADED] == 1


class TestVersionGuards:
    def test_insert_between_answer_and_audit_skips(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL)
        system.insert("t", ("a", 1.0))
        assert auditor.drain() == []
        assert auditor.stats.skipped[SKIP_VERSION_MISMATCH] == 1
        assert auditor.stats.audited == 0

    def test_table_reregistered_mid_audit_skips_not_crashes(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL)
        rng = np.random.default_rng(2)
        schema = system.catalog.get("t").schema
        system.register_table(
            "t",
            Table(
                schema,
                {
                    "g": rng.choice(["x", "y"], size=500),
                    "v": rng.normal(5.0, 1.0, size=500),
                },
            ),
        )
        assert auditor.drain() == []
        assert auditor.stats.skipped[SKIP_VERSION_MISMATCH] == 1

    def test_an_answer_over_pending_rows_is_audited(self):
        """exact() reads the answer's record, pending rows included, and
        publishes nothing, so the audit's version check passes."""
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.insert("t", ("a", 1.0))
        system.answer(SQL)
        (finding,) = auditor.drain()
        assert finding.groups_checked > 0
        assert auditor.stats.audited == 1
        assert SKIP_VERSION_MISMATCH not in auditor.stats.skipped

    def test_same_version_audits_cleanly(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL)
        (finding,) = auditor.drain()
        assert finding.groups_checked > 0
        assert finding.violations == 0


class TestVerdicts:
    def test_honest_answers_have_no_violations(self):
        system = _system()
        slo = SLOMonitor(clock=ManualClock())
        system.attach_slo(slo)
        auditor = _auditor(system, fraction=1.0, slo=slo)
        for _ in range(3):
            system.answer(SQL)
        findings = auditor.drain()
        assert all(f.violations == 0 for f in findings)
        status = next(
            s for s in slo.evaluate() if s.slo.name == "bound_violation_rate"
        )
        assert status.bad == 0 and status.good == 3

    def test_tampered_answers_are_caught(self):
        system = _system(cache=False)
        slo = SLOMonitor(clock=ManualClock())
        system.attach_slo(slo)
        auditor = _auditor(system, fraction=1.0, slo=slo)
        with AnswerTamper(system, scale=1.5):
            system.answer(SQL)
        (finding,) = auditor.drain()
        assert finding.violations > 0
        assert finding.max_observed_rel_error > 0.3
        status = next(
            s for s in slo.evaluate() if s.slo.name == "bound_violation_rate"
        )
        assert status.bad == 1

    def test_audit_back_annotates_the_event(self):
        system = _system(cache=False)
        auditor = _auditor(system, fraction=1.0)
        with AnswerTamper(system, scale=1.5):
            answer = system.answer(SQL)
        auditor.drain()
        event = system.telemetry.events.get(answer.trace_id)
        assert event.audited is True
        assert event.bound_violations > 0
        assert event.observed_rel_error > 0.3

    def test_violation_promotes_the_trace(self):
        system = _system(cache=False)
        system.telemetry.tracer.enable()
        auditor = _auditor(system, fraction=1.0)
        with AnswerTamper(system, scale=1.5):
            answer = system.answer(SQL)
        auditor.drain()
        assert (
            system.telemetry.traces.reason(answer.trace_id)
            == "bound_violation"
        )

    def test_violation_exemplar_lands_in_openmetrics(self):
        system = _system(cache=False)
        auditor = _auditor(system, fraction=1.0)
        with AnswerTamper(system, scale=1.5):
            answer = system.answer(SQL)
        auditor.drain()
        text = system.telemetry.metrics.to_openmetrics()
        assert f'# {{trace_id="{answer.trace_id}"}}' in text
        assert "# {" not in system.telemetry.metrics.to_prometheus()

    def test_zero_surviving_group_query_audits_without_crashing(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        # Unguarded: the guard would repair an all-groups-missing answer
        # into an exact (degraded) one, which is never offered for audit.
        answer = system.answer(
            "SELECT g, SUM(v) AS s FROM t WHERE v < -1 GROUP BY g",
            guard=False,
        )
        assert answer.result.num_rows == 0
        (finding,) = auditor.drain()
        assert finding.groups_checked == 0
        assert finding.violations == 0
        assert auditor.stats.audited == 1


class TestGroupKeySpellings:
    """The auditor judges the stage query's answer, so a group key is found
    by its GROUP BY name however the select list spells it."""

    @pytest.mark.parametrize(
        "sql",
        [
            SQL,
            "SELECT g AS gg, SUM(v) AS s FROM t GROUP BY g",
            "SELECT SUM(v) AS s FROM t GROUP BY g",
            "SELECT SUM(v) AS g FROM t GROUP BY g",
        ],
        ids=["selected", "aliased", "unselected", "alias-is-key"],
    )
    def test_every_group_is_audited(self, sql):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(sql)
        (finding,) = auditor.drain()
        assert finding.groups_checked == 4  # g takes four values
        assert finding.violations == 0
        assert auditor.stats.skipped == {}

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, SUM(v) AS total FROM t GROUP BY g",
            "SELECT g AS gg, SUM(v) AS total FROM t GROUP BY g",
        ],
        ids=["renamed-aggregate", "aliased-key"],
    )
    def test_canonical_hits_are_audited(self, sql):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL)
        assert system.answer(sql).cache_tier == "canonical"
        findings = auditor.drain()
        assert [f.groups_checked for f in findings] == [4, 4]
        assert all(f.violations == 0 for f in findings)
        assert auditor.stats.skipped == {}


class TestBackgroundWorker:
    def test_background_worker_drains_the_queue(self):
        system = _system()
        auditor = AccuracyAuditor(
            system,
            AuditConfig(sample_fraction=1.0),
            rng=np.random.default_rng(5),
            background=True,
        )
        system.attach_auditor(auditor)
        try:
            for _ in range(3):
                system.answer(SQL)
            assert auditor.wait_idle(timeout=10.0)
            deadline = 100
            while auditor.stats.audited < 3 and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
            assert auditor.stats.audited == 3
        finally:
            auditor.close()

    def test_closed_auditor_rejects_offers(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        auditor.close()
        system.answer(SQL)
        assert auditor.pending == 0


class TestStats:
    def test_describe_renders_counts(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL)
        auditor.drain()
        text = auditor.stats.describe()
        assert "audited 1/1 sampled" in text

    def test_to_dict_round_trips(self):
        system = _system()
        auditor = _auditor(system, fraction=1.0)
        system.answer(SQL)
        auditor.drain()
        data = auditor.stats.to_dict()
        assert data["audited"] == 1
        assert data["violating_queries"] == 0
