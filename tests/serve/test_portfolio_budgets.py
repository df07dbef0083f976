"""Serving-layer budget semantics: ``budget_satisfied`` and degradation.

The non-negotiable rule under test: a degraded answer must never satisfy
a ``max_rel_error`` budget silently -- degradation strips the accuracy
promise, so ``budget_satisfied`` is pinned ``False`` on that path no
matter what the unguarded error columns say.
"""

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
SQL2 = "SELECT g, AVG(v) AS a FROM t GROUP BY g"


def _system(portfolio=True):
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
    if portfolio:
        system.build_portfolio("t")
    return system


def _service(system=None, config=None, **kwargs):
    system = system if system is not None else _system()
    kwargs.setdefault("sleep", lambda _s: None)
    return QueryService(system, config, **kwargs)


class TestBudgetSatisfied:
    def test_no_budget_reports_none(self):
        with _service() as service:
            assert service.query(SQL).budget_satisfied is None

    def test_error_budget_satisfied_on_clean_path(self):
        with _service() as service:
            result = service.query(SQL, max_rel_error=0.5)
            assert result.budget_satisfied is True
            assert not result.degraded
            answer = result.answer
            assert answer.chosen_synopsis in {"fine", "mid", "coarse"}
            promised = answer.promised_rel_error
            assert promised is None or promised <= 0.5 * (1 + 1e-9)

    def test_generous_time_budget_satisfied(self):
        with _service() as service:
            result = service.query(SQL, max_ms=60_000.0)
            assert result.budget_satisfied is True

    def test_hopeless_time_budget_reported_unsatisfied(self):
        with _service() as service:
            result = service.query(SQL, max_ms=1e-9)
            # Still served (time budgets are goals, not deadlines), but
            # honestly reported as missed.
            assert result.budget_satisfied is False
            assert result.result.num_rows == 3

    def test_budget_without_portfolio_propagates_typed_error(self):
        from repro.errors import SynopsisMissingError

        with _service(_system(portfolio=False)) as service:
            with pytest.raises(SynopsisMissingError):
                service.query(SQL, max_rel_error=0.5)


class TestDegradedBudgets:
    def _shed(self, service, system, **budgets):
        """Run one gated load-shed round; return the shed result."""
        with ServiceFaultInjector(system) as faults:
            gate = faults.gate_queries()
            first = service.submit(SQL)
            shed = service.submit(SQL2, **budgets)
            gate.set()
            first.result()
            return shed.result()

    def test_degraded_never_satisfies_error_budget(self):
        system = _system()
        config = ServiceConfig(
            workers=1, queue_depth=3, degrade_queue_fraction=0.5
        )
        with _service(system, config) as service:
            result = self._shed(service, system, max_rel_error=100.0)
            assert result.degraded
            # Even an absurdly loose error budget is never "satisfied"
            # by a degraded answer.
            assert result.budget_satisfied is False

    def test_degraded_path_uses_coarsest_portfolio_member(self):
        system = _system()
        config = ServiceConfig(
            workers=1, queue_depth=3, degrade_queue_fraction=0.5
        )
        with _service(system, config) as service:
            result = self._shed(service, system, max_rel_error=0.5)
            assert result.degraded
            coarsest = system.portfolio("t").coarsest().name
            assert result.answer.chosen_synopsis == coarsest
            tags = set(result.result.column("provenance").tolist())
            assert tags == {"degraded"}

    def test_degraded_without_portfolio_still_serves(self):
        system = _system(portfolio=False)
        config = ServiceConfig(
            workers=1, queue_depth=3, degrade_queue_fraction=0.5
        )
        with _service(system, config) as service:
            result = self._shed(service, system, max_rel_error=0.5)
            assert result.degraded
            assert result.budget_satisfied is False
            assert result.answer.chosen_synopsis is None


class TestHttpBudgets:
    @pytest.fixture
    def served(self):
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

    @staticmethod
    def _post(url, payload):
        request = urllib.request.Request(
            f"{url}/query",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_budget_fields_in_payload(self, served):
        __, __, url = served
        status, payload = self._post(
            url, {"sql": SQL, "max_rel_error": 0.5}
        )
        assert status == 200
        assert payload["budget_satisfied"] is True
        assert payload["chosen_synopsis"] in {"fine", "mid", "coarse"}
        assert payload["predicted_rel_error"] is not None

    def test_budget_free_payload_keeps_null_fields(self, served):
        __, __, url = served
        status, payload = self._post(url, {"sql": SQL})
        assert status == 200
        assert payload["budget_satisfied"] is None
        assert payload["chosen_synopsis"] is None

    def test_malformed_budget_is_client_error(self, served):
        __, __, url = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(url, {"sql": SQL, "max_rel_error": "soon"})
        assert excinfo.value.code == 400
