"""The HTTP front-end: endpoints, status mapping, shared admission."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.serve import QueryService, ServiceConfig, serve_http
from repro.testing.faults import ServiceFaultInjector

# shutdown() waits for serve_forever's next poll (0.5 s by default)
POLL = {"poll_interval": 0.01}
SQL = "SELECT g, SUM(v) AS s FROM t GROUP BY g"


def _system():
    rng = np.random.default_rng(3)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    system = AquaSystem(
        space_budget=300, rng=np.random.default_rng(9), telemetry=True
    )
    system.register_table(
        "t",
        Table(
            schema,
            {
                "g": rng.choice(["a", "b", "c"], size=2000),
                "v": rng.normal(100.0, 10.0, size=2000),
            },
        ),
    )
    return system


@pytest.fixture
def served():
    """A live HTTP server over a small service; yields (system, service, url)."""
    system = _system()
    service = QueryService(
        system,
        ServiceConfig(workers=2, queue_depth=2),
        sleep=lambda _s: None,
    )
    server = serve_http(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs=POLL, daemon=True
    )
    thread.start()
    try:
        yield system, service, server.url
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def _post(url, payload):
    request = urllib.request.Request(
        f"{url}/query",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _get(url, path):
    with urllib.request.urlopen(f"{url}{path}") as response:
        return response.status, response.read()


class TestQueryEndpoint:
    def test_answers_sql(self, served):
        _system_, _service, url = served
        status, payload = _post(url, {"sql": SQL})
        assert status == 200
        assert {"g", "s", "provenance"} <= set(payload["columns"])
        assert len(payload["rows"]) == 3
        assert not payload["degraded"]
        assert payload["attempts"] == 1

    def test_bad_sql_is_400(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"sql": "SELEC nonsense"})
        assert excinfo.value.code == 400

    def test_missing_sql_is_400(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"tenant": "alice"})
        assert excinfo.value.code == 400

    def test_unknown_table_is_404(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"sql": "SELECT g, SUM(v) AS s FROM nope GROUP BY g"})
        assert excinfo.value.code == 404

    def test_expired_deadline_is_504_with_stage(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"sql": SQL, "deadline_seconds": 0})
        assert excinfo.value.code == 504
        body = json.loads(excinfo.value.read())
        assert body["error"] == "DeadlineExceeded"
        assert body["stage"] == "queue"

    def test_saturated_service_is_429_with_retry_after(self, served):
        system, service, url = served
        with ServiceFaultInjector(system) as faults:
            gate = faults.gate_queries()
            futures = [
                service.submit(SQL) for _ in range(service.config.capacity)
            ]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(url, {"sql": SQL})
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] is not None
            body = json.loads(excinfo.value.read())
            assert body["error"] == "OverloadError"
            gate.set()
            for future in futures:
                future.result()

    def test_unknown_path_is_404(self, served):
        _system_, _service, url = served
        request = urllib.request.Request(
            f"{url}/nope", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404


class TestIntrospectionEndpoints:
    def test_health(self, served):
        _system_, _service, url = served
        status, body = _get(url, "/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_stats_reflect_served_queries(self, served):
        _system_, service, url = served
        service.query(SQL)
        status, body = _get(url, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["admitted"] >= 1
        assert stats["outcomes"].get("ok", 0) >= 1
        assert stats["capacity"] == service.config.capacity

    def test_metrics_exposition(self, served):
        _system_, service, url = served
        service.query(SQL)
        status, body = _get(url, "/metrics")
        assert status == 200
        assert b"serve_requests_total" in body

    def test_get_unknown_path_is_404(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url, "/nope")
        assert excinfo.value.code == 404


class TestEventsEndpoint:
    def test_events_reflect_served_queries(self, served):
        _system_, service, url = served
        service.query(SQL)
        status, body = _get(url, "/events")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["events"]
        event = payload["events"][-1]
        assert event["table"] == "t"
        assert event["status"] == "ok"
        assert event["trace_id"].startswith("q")

    def test_events_limit_query_param(self, served):
        _system_, service, url = served
        for _ in range(4):
            service.query(SQL)
        status, body = _get(url, "/events?limit=2")
        assert status == 200
        assert len(json.loads(body)["events"]) == 2

    def test_events_bad_limit_is_400(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url, "/events?limit=nope")
        assert excinfo.value.code == 400

    def test_events_violations_filter(self, served):
        _system_, service, url = served
        service.query(SQL)
        status, body = _get(url, "/events?violations=1")
        assert status == 200
        assert json.loads(body)["events"] == []


class TestSloEndpoint:
    def test_slo_404_without_monitor(self, served):
        _system_, _service, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url, "/slo")
        assert excinfo.value.code == 404

    def test_slo_reports_compliance(self, served):
        from repro.obs.slo import SLOMonitor

        system, service, url = served
        system.attach_slo(SLOMonitor())
        service.query(SQL)
        status, body = _get(url, "/slo")
        assert status == 200
        payload = json.loads(body)
        names = {slo["name"] for slo in payload["slos"]}
        assert "bound_violation_rate" in names
        assert payload["firing"] == []


class TestOpenMetricsEndpoint:
    def test_openmetrics_format_negotiated_by_query_param(self, served):
        _system_, service, url = served
        service.query(SQL)
        status, body = _get(url, "/metrics?format=openmetrics")
        assert status == 200
        assert body.rstrip().endswith(b"# EOF")

    def test_default_format_stays_prometheus(self, served):
        _system_, service, url = served
        service.query(SQL)
        _status, body = _get(url, "/metrics")
        assert b"# EOF" not in body
