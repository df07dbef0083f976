"""The roll-up tier passes the same gate as a miss.

A roll-up hit serves a coarser query from a finer answer's per-stratum
moments.  It is served only after ``validate`` -- auto-refresh, the
staleness limit and the sample's structural verdict -- so a damaged or
stale synopsis degrades (or raises) exactly as it would on a miss, and
``explain`` reports the tier ``answer`` then takes.
"""

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy
from repro.aqua import PROVENANCE_EXACT
from repro.errors import StaleSynopsisError, SynopsisCorruptError
from repro.testing import inject

from test_guard import make_table

FINE = "select a, b, sum(q) s from rel where q > -1 group by a, b"
COARSE = "select a, sum(q) s from rel where q > -1 group by a"
STRUCTURAL = ("drop_stratum", "corrupt_scale_factor", "corrupt_row_indices")


def _system(**kwargs):
    system = AquaSystem(
        space_budget=400, rng=np.random.default_rng(1), **kwargs
    )
    system.register_table("rel", make_table())
    return system


def _refuse_install(system, monkeypatch):
    """The patch route: the damaged sample replaces ``synopsis.sample``
    without being re-materialised, so the data version does not move."""

    def refuse(name, sample):
        raise RuntimeError("not materialisable")

    monkeypatch.setattr(system, "_install", refuse)


def test_a_sound_synopsis_still_serves_the_rollup_tier():
    system = _system()
    assert not system.answer(FINE).guard.degraded
    assert system.explain(COARSE).count("-- cache: rollup (from ") == 1
    answer = system.answer(COARSE)
    assert answer.cache_tier == "rollup" and not answer.guard.degraded


@pytest.mark.parametrize("route", ["install", "patch"])
@pytest.mark.parametrize("kind", STRUCTURAL)
class TestStructuralFault:
    def test_degrades_instead_of_serving_the_rollup(
        self, monkeypatch, kind, route
    ):
        system = _system()
        assert not system.answer(FINE).guard.degraded
        if route == "patch":
            _refuse_install(system, monkeypatch)
        inject(system, kind, "rel")
        assert "-- cache: miss" in system.explain(COARSE)
        answer = system.answer(COARSE)
        assert answer.cache_tier is None
        assert answer.guard.degraded
        assert answer.guard.fallback_reason.startswith("corrupt synopsis")
        assert set(answer.provenance_counts) == {PROVENANCE_EXACT}

    def test_on_corrupt_raise_raises(self, monkeypatch, kind, route):
        system = _system()
        assert not system.answer(FINE).guard.degraded
        if route == "patch":
            _refuse_install(system, monkeypatch)
        inject(system, kind, "rel")
        with pytest.raises(SynopsisCorruptError):
            system.answer(COARSE, guard=GuardPolicy(on_corrupt="raise"))


class TestStaleness:
    """25 inserts, no refresh; the finer answer was served (and registered)
    by a policy that accepts the staleness."""

    @staticmethod
    def stale_system(**kwargs):
        system = _system(**kwargs)
        inject(system, "stale", "rel")
        assert not system.answer(FINE, guard=GuardPolicy()).guard.degraded
        return system

    def test_on_stale_raise_raises(self):
        system = self.stale_system()
        with pytest.raises(StaleSynopsisError):
            system.answer(
                COARSE, guard=GuardPolicy(staleness_limit=10, on_stale="raise")
            )

    def test_on_stale_exact_falls_back(self):
        policy = GuardPolicy(staleness_limit=10, on_stale="exact")
        system = self.stale_system(guard_policy=policy)
        assert "-- cache: miss" in system.explain(COARSE)
        answer = system.answer(COARSE)
        assert answer.cache_tier is None
        assert answer.guard.fallback_reason.startswith("stale synopsis")
        assert answer.provenance_counts == {PROVENANCE_EXACT: 3}

    def test_on_stale_refresh_answers_from_the_refreshed_sample(self):
        system = self.stale_system()
        before = system.synopsis("rel")
        answer = system.answer(
            COARSE, guard=GuardPolicy(staleness_limit=10, on_stale="refresh")
        )
        assert system.synopsis("rel") is not before
        assert answer.cache_tier is None and not answer.guard.degraded
        assert answer.guard.stale_inserts == 0

    def test_on_stale_serve_keeps_the_rollup(self):
        policy = GuardPolicy(staleness_limit=10, on_stale="serve")
        system = self.stale_system(guard_policy=policy)
        assert "-- cache: rollup (from " in system.explain(COARSE)
        answer = system.answer(COARSE)
        assert answer.cache_tier == "rollup"
        assert answer.guard.stale_inserts == 25
