"""Deterministic fault injection for streaming service (ISSUE 8 satellite).

Covers the interruption contract end to end:

* a deadline expiring mid-stream ends the stream with the last complete
  ``StreamingAnswer`` re-emitted under ``partial`` provenance -- and
  leaves both the answer cache and the plan cache unpolluted;
* ``SlowScanTable`` + ``ManualClock`` make the timing a statement about
  the test, not the machine;
* an open circuit breaker refuses *new* streams with ``OverloadError``
  (streams have no degraded mode);
* admission control: full queue and load shedding reject streams, the
  slot is held for the stream's lifetime and released at close.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.errors import (
    AquaError,
    DeadlineExceeded,
    OverloadError,
    RateLimitExceeded,
    StreamError,
)
from repro.serve import QueryService, ServiceConfig
from repro.serve.breaker import BreakerConfig, OPEN
from repro.serve.deadline import Deadline, ManualClock
from repro.serve.http import serve_http
from repro.testing.faults import ServiceFaultInjector

SQL = "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g ORDER BY g"


def _table(n=4000, seed=3):
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


class TestDeadlineMidStream:
    def test_partial_provenance_and_no_cache_pollution(self):
        clock = ManualClock()
        system = _system()
        answer_stats = system.answer_cache.stats
        plan_entries = len(system.plan_cache)
        with ServiceFaultInjector(system) as faults:
            # Every chunk cut / scan read costs 1s of manual-clock time;
            # a 10s deadline admits the first chunk and dies in the second.
            faults.slow_base_scan("t", cost_seconds=1.0, clock=clock)
            answers = list(
                system.sql_stream(
                    SQL,
                    chunk_rows=1000,
                    deadline=Deadline(10.0, clock=clock),
                    rng=np.random.default_rng(5),
                )
            )
        assert len(answers) >= 2
        terminal = answers[-1]
        assert terminal.provenance == "partial"
        assert not terminal.final
        assert not terminal.converged
        # The terminal answer re-states the last complete emission.
        assert terminal.result == answers[-2].result
        assert terminal.rows_seen == answers[-2].rows_seen
        # No AnswerCache pollution: a later stream starts from scratch.
        assert system.answer_cache.stats.size == answer_stats.size
        replay = next(iter(system.sql_stream(SQL, chunk_rows=1000)))
        assert not replay.cache_hit
        # A stream plans nothing: chunks are filtered by the WHERE
        # predicate directly and the landing is exact(), which does not
        # use the plan cache.
        assert len(system.plan_cache) == plan_entries

    def test_expiry_before_first_answer_raises(self):
        clock = ManualClock()
        system = _system()
        with ServiceFaultInjector(system) as faults:
            faults.slow_base_scan("t", cost_seconds=10.0, clock=clock)
            with pytest.raises(DeadlineExceeded):
                list(
                    system.sql_stream(
                        SQL,
                        chunk_rows=1000,
                        deadline=Deadline(5.0, clock=clock),
                    )
                )

    def test_service_counts_partial_stream_as_deadline(self):
        clock = ManualClock()
        system = _system()
        with _service(system) as service:
            with ServiceFaultInjector(system) as faults:
                faults.slow_base_scan("t", cost_seconds=1.0, clock=clock)
                answers = list(
                    service.stream(
                        SQL,
                        chunk_rows=1000,
                        deadline=Deadline(10.0, clock=clock),
                    )
                )
            assert answers[-1].provenance == "partial"
            assert service.stats.outcomes.get("deadline") == 1
            # The deadline is budget exhaustion, not table trouble: the
            # breaker must not trip.
            assert service.breaker("t").state == "closed"


class TestBreakerRefusesStreams:
    def test_open_breaker_raises_overload(self):
        system = _system()
        with _service(
            system,
            breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=30.0),
            clock=ManualClock(),
        ) as service:
            with ServiceFaultInjector(system) as faults:
                faults.error_burst(
                    2, factory=lambda: AquaError("synopsis trouble")
                )
                for _ in range(2):
                    with pytest.raises(AquaError):
                        service.query(SQL)
            assert service.breaker("t").state == OPEN
            with pytest.raises(OverloadError) as exc_info:
                service.stream(SQL)
            assert exc_info.value.retry_after_seconds > 0
            assert service.stats.rejected_overload == 1

    def test_clean_stream_records_breaker_success(self):
        system = _system()
        with _service(system) as service:
            answers = list(service.stream(SQL, chunk_rows=1000))
            assert answers[-1].final
            assert service.breaker("t").state == "closed"
            assert service.stats.outcomes == {"ok": 1}


class TestStreamAdmission:
    def test_full_queue_rejects_stream(self):
        config = ServiceConfig(
            workers=1, queue_depth=0, degrade_queue_fraction=None
        )
        with _service(config=config) as service:
            stream = service.stream(SQL, chunk_rows=1000)
            next(stream)  # slot now held by the open stream
            with pytest.raises(OverloadError):
                service.stream(SQL)
            stream.close()
            # Slot released on close: a new stream admits again.
            list(service.stream(SQL, chunk_rows=2000))

    def test_load_shedding_rejects_stream(self):
        config = ServiceConfig(
            workers=1, queue_depth=1, degrade_queue_fraction=0.9
        )
        with _service(config=config) as service:
            stream = service.stream(SQL, chunk_rows=1000)
            next(stream)
            # Depth 2/2 >= 0.9 * capacity: streams shed instead of degrade.
            with pytest.raises(OverloadError, match="shed"):
                service.stream(SQL)
            stream.close()

    def test_rate_limit_applies(self):
        config = ServiceConfig(tenant_rate=0.0, tenant_burst=1.0)
        with _service(config=config, clock=ManualClock()) as service:
            list(service.stream(SQL, chunk_rows=2000))
            with pytest.raises(RateLimitExceeded):
                service.stream(SQL)

    def test_invalid_query_is_invalid_outcome(self):
        with _service() as service:
            with pytest.raises(StreamError):
                list(service.stream("SELECT g, v FROM t WHERE v > 0"))
            assert service.stats.outcomes.get("invalid") == 1


class TestStreamingHTTP:
    def test_ndjson_events_and_terminal_chunk(self):
        system = _system()
        with _service(system) as service:
            server = serve_http(service)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                body = json.dumps({"sql": SQL, "chunk_rows": 1000}).encode()
                request = urllib.request.Request(
                    server.url + "/query?stream=1", data=body
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    assert response.status == 200
                    assert (
                        response.headers["Content-Type"]
                        == "application/x-ndjson"
                    )
                    events = [
                        json.loads(line)
                        for line in response.read().decode().splitlines()
                        if line
                    ]
            finally:
                server.shutdown()
                thread.join(timeout=10)
        assert len(events) >= 2
        fractions = [event["fraction"] for event in events]
        assert fractions == sorted(fractions)
        assert events[-1]["final"]
        assert events[-1]["provenance"] == "exact"
        assert all(not event["final"] for event in events[:-1])
        assert events[0]["columns"] == ["g", "s", "a", "s_error", "a_error"]

    def test_stream_errors_are_json_before_first_chunk(self):
        with _service() as service:
            server = serve_http(service)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                body = json.dumps({"sql": "SELECT g, v FROM t"}).encode()
                request = urllib.request.Request(
                    server.url + "/query?stream=1", data=body
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(request, timeout=30)
                assert exc_info.value.code == 400
                payload = json.loads(exc_info.value.read())
                assert payload["error"] == "StreamError"
            finally:
                server.shutdown()
                thread.join(timeout=10)
