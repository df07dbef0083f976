"""QueryService behaviour: admission, degradation, deadlines, retries.

Determinism notes: worker saturation uses the fault injector's query gate
(no sleeps), time-based behaviour (rate limits, breaker cooldowns, slow
scans) runs on a shared :class:`ManualClock`, and retry backoff uses an
injected no-op sleep.
"""

import threading

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.errors import (
    AquaError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadError,
    RateLimitExceeded,
    ServeError,
    TransientError,
)
from repro.serve import QueryService, ServiceConfig
from repro.serve.breaker import BreakerConfig, OPEN
from repro.serve.deadline import Deadline, ManualClock
from repro.testing.faults import ServiceFaultInjector

SQL = "SELECT g, SUM(v) AS s FROM t GROUP BY g"
SQL2 = "SELECT g, AVG(v) AS a FROM t GROUP BY g"
SQL3 = "SELECT g, COUNT(*) AS c FROM t GROUP BY g"
# Its moments scan reads three sample columns (the WHERE's g and v, then
# SUM's v): the slow scan's target.
SCAN_SQL = "SELECT g, SUM(v) AS s FROM t WHERE v > 0 AND g != 'z' GROUP BY g"


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
        space_budget=300,
        rng=np.random.default_rng(9),
        telemetry=True,
        **kwargs,
    )
    system.register_table("t", _table())
    return system


def _service(system=None, config=None, **kwargs):
    system = system if system is not None else _system()
    kwargs.setdefault("sleep", lambda _s: None)
    return QueryService(system, config, **kwargs)


class TestHappyPath:
    def test_query_returns_answer(self):
        with _service() as service:
            result = service.query(SQL)
            assert result.result.num_rows == 3
            assert not result.degraded
            assert result.attempts == 1
            assert service.stats.outcomes == {"ok": 1}

    def test_query_objects_accepted(self):
        from repro.engine.sql import parse_query

        with _service() as service:
            result = service.query(parse_query(SQL))
            assert result.result.num_rows == 3

    def test_closed_service_rejects(self):
        service = _service()
        service.close()
        with pytest.raises(ServeError):
            service.query(SQL)

    def test_stats_describe_renders(self):
        with _service() as service:
            service.query(SQL)
            text = service.stats.describe()
            assert "admitted 1" in text
            assert "breaker[t]: closed" in text


class TestAdmissionControl:
    def test_saturated_pool_rejects_immediately(self):
        system = _system()
        config = ServiceConfig(
            workers=2, queue_depth=2, admission_timeout_seconds=0.0
        )
        with _service(system, config) as service:
            with ServiceFaultInjector(system) as faults:
                gate = faults.gate_queries()
                futures = [service.submit(SQL) for _ in range(4)]
                assert service.pending == 4
                with pytest.raises(OverloadError) as excinfo:
                    service.submit(SQL)
                assert excinfo.value.retry_after_seconds > 0
                gate.set()
                for future in futures:
                    future.result()
            assert service.stats.rejected_overload == 1
            assert service.stats.admitted == 4

    def test_rejection_within_admission_timeout(self):
        import time

        system = _system()
        timeout = 0.1
        config = ServiceConfig(
            workers=1, queue_depth=0, admission_timeout_seconds=timeout
        )
        with _service(system, config) as service:
            with ServiceFaultInjector(system) as faults:
                gate = faults.gate_queries()
                future = service.submit(SQL)
                start = time.monotonic()
                with pytest.raises(OverloadError):
                    service.submit(SQL)
                elapsed = time.monotonic() - start
                # Must wait for the timeout, then give up promptly.
                assert timeout <= elapsed < timeout + 2.0
                gate.set()
                future.result()

    def test_slot_freed_after_completion(self):
        config = ServiceConfig(
            workers=1, queue_depth=0, degrade_queue_fraction=None
        )
        with _service(config=config) as service:
            for _ in range(5):  # each waits; none is rejected
                service.query(SQL3)
            assert service.stats.rejected == 0
            assert service.pending == 0


class TestRateLimiting:
    def test_tenant_bucket_rejects_then_refills(self):
        clock = ManualClock()
        config = ServiceConfig(tenant_rate=1.0, tenant_burst=2.0)
        with _service(config=config, clock=clock) as service:
            service.query(SQL, tenant="alice")
            service.query(SQL, tenant="alice")
            with pytest.raises(RateLimitExceeded) as excinfo:
                service.submit(SQL, tenant="alice")
            assert excinfo.value.tenant == "alice"
            clock.advance(1.0)
            service.query(SQL, tenant="alice")
            assert service.stats.rejected_rate_limit == 1

    def test_overrides_give_tenants_their_own_limits(self):
        clock = ManualClock()
        config = ServiceConfig(tenant_rate=1.0, tenant_burst=1.0)
        with _service(
            config=config,
            clock=clock,
            tenant_overrides={"vip": (100.0, 100.0)},
        ) as service:
            for _ in range(10):
                service.query(SQL, tenant="vip")
            service.query(SQL, tenant="alice")
            with pytest.raises(RateLimitExceeded):
                service.submit(SQL, tenant="alice")


class TestDegradation:
    def test_deep_queue_sheds_load(self):
        system = _system()
        config = ServiceConfig(
            workers=1, queue_depth=3, degrade_queue_fraction=0.5
        )
        with _service(system, config) as service:
            with ServiceFaultInjector(system) as faults:
                gate = faults.gate_queries()
                first = service.submit(SQL)
                shed = [service.submit(SQL2), service.submit(SQL3)]
                gate.set()
                full = first.result()
                degraded = [future.result() for future in shed]
            assert not full.degraded
            for result in degraded:
                assert result.degraded
                assert result.degradation == "load_shed"
                tags = set(result.result.column("provenance").tolist())
                assert tags == {"degraded"}
            assert service.stats.degraded == 2

    def test_degraded_answer_not_replayed_as_clean(self):
        system = _system()
        config = ServiceConfig(
            workers=1, queue_depth=3, degrade_queue_fraction=0.5
        )
        with _service(system, config) as service:
            with ServiceFaultInjector(system) as faults:
                gate = faults.gate_queries()
                first = service.submit(SQL)
                shed = service.submit(SQL2)
                gate.set()
                first.result()
                assert shed.result().degraded
            clean = service.query(SQL2)
            assert not clean.degraded
            tags = set(clean.result.column("provenance").tolist())
            assert "degraded" not in tags

    def test_open_breaker_degrades(self):
        clock = ManualClock()
        system = _system()
        with _service(
            system,
            breaker=BreakerConfig(
                failure_threshold=2, cooldown_seconds=30.0
            ),
            clock=clock,
        ) as service:
            with ServiceFaultInjector(system) as faults:
                faults.error_burst(
                    2, factory=lambda: AquaError("synopsis trouble")
                )
                for _ in range(2):
                    with pytest.raises(AquaError):
                        service.query(SQL)
            assert service.breaker("t").state == OPEN
            result = service.query(SQL)
            assert result.degraded
            assert result.degradation == "breaker_open"
            assert set(result.result.column("provenance").tolist()) == {
                "degraded"
            }
            assert service.stats.breakers["t"] == OPEN

    def test_breaker_recovers_through_probe(self):
        clock = ManualClock()
        system = _system()
        with _service(
            system,
            breaker=BreakerConfig(
                failure_threshold=1, cooldown_seconds=5.0
            ),
            clock=clock,
        ) as service:
            with ServiceFaultInjector(system) as faults:
                faults.error_burst(
                    1, factory=lambda: AquaError("synopsis trouble")
                )
                with pytest.raises(AquaError):
                    service.query(SQL)
            assert service.breaker("t").state == OPEN
            clock.advance(6.0)
            probe = service.query(SQL)  # half-open probe, full ladder
            assert not probe.degraded
            assert service.breaker("t").state == "closed"

    def test_breaker_open_raises_when_degradation_disabled(self):
        system = _system()
        config = ServiceConfig(degrade_on_breaker=False)
        with _service(
            system,
            config,
            breaker=BreakerConfig(failure_threshold=1),
        ) as service:
            with ServiceFaultInjector(system) as faults:
                faults.error_burst(
                    1, factory=lambda: AquaError("synopsis trouble")
                )
                with pytest.raises(AquaError):
                    service.query(SQL)
            with pytest.raises(CircuitOpenError):
                service.query(SQL)
            assert service.stats.outcomes.get("breaker_open") == 1

    def test_degraded_system_serves_sheds(self):
        cheap = _system()
        system = _system()
        config = ServiceConfig(
            workers=1, queue_depth=3, degrade_queue_fraction=0.5
        )
        with _service(
            system, config, degraded_system=cheap
        ) as service:
            with ServiceFaultInjector(system) as faults:
                gate = faults.gate_queries()
                first = service.submit(SQL)
                shed = service.submit(SQL2)
                gate.set()
                first.result()
                degraded = shed.result()
            assert degraded.degraded
            # Served by the fallback system: the primary's gate never saw it.
            assert set(degraded.result.column("provenance").tolist()) == {
                "degraded"
            }


class TestRetries:
    def test_transient_faults_retried_transparently(self):
        system = _system()
        with _service(system) as service:
            with ServiceFaultInjector(system) as faults:
                faults.error_burst(2)  # default: TransientError
                result = service.query(SQL)
            assert result.attempts == 3
            assert service.stats.retries == 2
            assert service.stats.outcomes == {"ok": 1}

    def test_exhausted_retries_surface_transient_error(self):
        system = _system()
        with _service(system) as service:
            with ServiceFaultInjector(system) as faults:
                faults.error_burst(10)
                with pytest.raises(TransientError):
                    service.query(SQL)
            assert service.stats.outcomes == {"error": 1}


class TestDeadlines:
    def test_expired_deadline_dies_in_queue(self):
        clock = ManualClock()
        with _service(clock=clock) as service:
            with pytest.raises(DeadlineExceeded) as excinfo:
                service.query(SQL, deadline=Deadline(0.0, clock=clock))
            assert excinfo.value.stage == "queue"
            assert service.stats.outcomes == {"deadline": 1}

    def test_slow_scan_dies_mid_execution_with_stage(self):
        clock = ManualClock()
        system = _system()
        with _service(system, clock=clock) as service:
            with ServiceFaultInjector(system) as faults:
                slow = faults.slow_scan("t", cost_seconds=0.5, clock=clock)
                with pytest.raises(DeadlineExceeded) as excinfo:
                    service.query(
                        SCAN_SQL, deadline=Deadline(1.0, clock=clock)
                    )
                assert excinfo.value.stage == "scan"
                assert slow.reads >= 2
            assert service.stats.outcomes == {"deadline": 1}

    def test_default_deadline_applies(self):
        clock = ManualClock()
        system = _system()
        config = ServiceConfig(default_deadline_seconds=1.0)
        with _service(system, config, clock=clock) as service:
            with ServiceFaultInjector(system) as faults:
                faults.slow_scan("t", cost_seconds=2.0, clock=clock)
                with pytest.raises(DeadlineExceeded):
                    service.query(SCAN_SQL)

    def test_deadline_failure_leaves_no_partial_cache_state(self):
        """A query killed mid-GROUP BY must not poison either cache."""
        clock = ManualClock()
        system = _system()
        with _service(system, clock=clock) as service:
            with ServiceFaultInjector(system) as faults:
                faults.slow_scan("t", cost_seconds=0.5, clock=clock)
                with pytest.raises(DeadlineExceeded) as excinfo:
                    service.query(
                        SCAN_SQL, deadline=Deadline(1.0, clock=clock)
                    )
                assert excinfo.value.stage == "scan"
                # No partial answer was stored for the doomed query.
                assert len(system.answer_cache) == 0
            # Unhindered, the same query completes and *then* caches.
            first = service.query(SCAN_SQL)
            assert first.result.num_rows == 3
            assert len(system.answer_cache) == 1
            before = system.answer_cache.stats.hits
            service.query(SCAN_SQL)
            assert system.answer_cache.stats.hits == before + 1

    def test_system_answer_accepts_deadline_directly(self):
        clock = ManualClock()
        system = _system()
        with ServiceFaultInjector(system) as faults:
            faults.slow_scan("t", cost_seconds=5.0, clock=clock)
            with pytest.raises(DeadlineExceeded):
                system.answer(SCAN_SQL, deadline=Deadline(1.0, clock=clock))


class TestErrorTaxonomy:
    def test_bad_sql_is_invalid(self):
        from repro.engine.sql import SqlError

        with _service() as service:
            with pytest.raises(SqlError):
                service.query("SELEC nonsense")
            assert service.stats.outcomes == {"invalid": 1}

    def test_unknown_table_is_invalid(self):
        from repro.errors import TableNotRegisteredError

        with _service() as service:
            with pytest.raises(TableNotRegisteredError):
                service.query("SELECT g, SUM(v) AS s FROM nope GROUP BY g")
            assert service.stats.outcomes == {"invalid": 1}


class TestObservability:
    def test_serve_metrics_registered(self):
        system = _system()
        with _service(system) as service:
            service.query(SQL)
            with pytest.raises(OverloadError):
                gated = ServiceFaultInjector(system)
                try:
                    gated.gate_queries()
                    futures = [
                        service.submit(SQL)
                        for _ in range(service.config.capacity)
                    ]
                    service.submit(SQL)
                finally:
                    gated.release()
                    for future in futures:
                        future.result()
                    gated.restore()
            names = set(system.metrics.names())
            assert "serve_requests_total" in names
            assert "serve_queue_wait_seconds" in names
            assert "serve_latency_seconds" in names
            assert "serve_rejected_total" in names
            assert "serve_queue_depth" in names
            text = system.metrics.to_prometheus()
            # Exposition labels are sorted by name for stable output.
            assert 'serve_requests_total{outcome="ok",tenant="default"}' in text

    def test_answer_trace_survives_serving(self):
        system = _system()
        system.tracer.enable()
        with _service(system) as service:
            result = service.query(SQL)
            trace = result.answer.trace
            assert trace is not None
            assert trace.root.name == "answer"
            assert trace.stage_seconds()  # per-stage timings captured


class TestConcurrentLoad:
    def test_deterministic_load_test(self):
        """Saturation -> bounded rejections; everything admitted completes."""
        system = _system()
        config = ServiceConfig(
            workers=4, queue_depth=4, degrade_queue_fraction=0.75
        )
        clients = 8
        per_client = 5
        results, errors = [], []
        lock = threading.Lock()

        with _service(system, config) as service:

            def client(k):
                for i in range(per_client):
                    try:
                        answer = service.query(SQL if i % 2 else SQL3)
                        with lock:
                            results.append(answer)
                    except (OverloadError, RateLimitExceeded) as exc:
                        with lock:
                            errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(k,))
                for k in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats
        assert len(results) + len(errors) == clients * per_client
        assert stats.admitted == len(results)
        assert stats.rejected_overload == len(errors)
        assert stats.pending == 0
        # Every served answer is either full-service or honestly degraded.
        for answer in results:
            if answer.degraded:
                tags = set(answer.result.column("provenance").tolist())
                assert tags == {"degraded"}
