"""Acceptance suite: every injected fault yields a guarded answer or a
typed AquaError -- never NaN aggregates and never a bare crash."""

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy
from repro.aqua import PROVENANCE_COLUMN, PROVENANCE_EXACT
from repro.errors import AquaError, SynopsisCorruptError
from repro.testing import FAULT_KINDS, FaultInjector, inject

from test_guard import SQL, make_table

# Faults whose damage is structural (the synopsis itself is no longer a
# valid stratified sample) -- they must trigger the full exact fallback.
STRUCTURAL = {"drop_stratum", "corrupt_scale_factor", "corrupt_row_indices"}


@pytest.fixture
def system():
    system = AquaSystem(space_budget=400, rng=np.random.default_rng(1))
    system.register_table("rel", make_table())
    return system


def assert_no_nan(result, aliases):
    for alias in aliases:
        values = np.asarray(result.column(alias), dtype=float)
        assert not np.isnan(values).any(), f"NaN in {alias}"
        errors = np.asarray(result.column(f"{alias}_error"), dtype=float)
        assert not np.isnan(errors).any(), f"NaN in {alias}_error"


class TestFaultAcceptance:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_default_policy_never_serves_nan(self, system, kind):
        inject(system, kind, "rel")
        # Default policy, plus a staleness limit so the "stale" fault is in
        # scope for the guard rather than silently accepted.
        policy = GuardPolicy(staleness_limit=10)
        try:
            answer = system.answer(SQL, guard=policy)
        except AquaError:
            return  # a typed error is an acceptable outcome
        assert answer.guard is not None
        assert_no_nan(answer.result, ["s"])
        tags = answer.result.column(PROVENANCE_COLUMN)
        assert set(tags) <= {"synopsis", "repaired", "exact"}
        # Guarded answers must agree with the exact answer on every
        # repaired/exact group and stay close on synopsis groups.
        exact = {
            (r["a"], r["b"]): r["s"] for r in system.exact(SQL).to_dicts()
        }
        for row in answer.result.to_dicts():
            key = (row["a"], row["b"])
            if row[PROVENANCE_COLUMN] in ("repaired", "exact"):
                assert row["s"] == pytest.approx(exact[key])

    @pytest.mark.parametrize("kind", sorted(STRUCTURAL))
    def test_structural_faults_fall_back_to_exact(self, system, kind):
        inject(system, kind, "rel")
        answer = system.answer(SQL)
        assert answer.guard.fallback_reason is not None
        assert set(answer.result.column(PROVENANCE_COLUMN)) == {
            PROVENANCE_EXACT
        }

    @pytest.mark.parametrize("kind", sorted(STRUCTURAL))
    def test_on_corrupt_raise_gives_typed_error(self, system, kind):
        inject(system, kind, "rel")
        policy = GuardPolicy(on_corrupt="raise")
        with pytest.raises(SynopsisCorruptError):
            system.answer(SQL, guard=policy)

    def test_unguarded_answers_still_degrade_silently(self, system):
        """Documents WHY the guard exists: unguarded answers mis-scale."""
        FaultInjector(system).corrupt_scale_factor("rel")
        answer = system.answer(SQL, guard=False)
        exact = {
            (r["a"], r["b"]): r["s"] for r in system.exact(SQL).to_dicts()
        }
        approx = {
            (r["a"], r["b"]): r["s"] for r in answer.result.to_dicts()
        }
        worst = max(
            abs(approx[k] - exact[k]) / max(abs(exact[k]), 1e-9)
            for k in exact
            if k in approx
        )
        assert worst > 0.5  # the zeroed scale factor wipes out a group


class TestInjectorMechanics:
    def test_fault_record_fields(self, system):
        fault = FaultInjector(system).truncate_sample("rel", keep=2)
        assert fault.kind == "truncate_sample"
        assert fault.table == "rel"
        assert fault.key in system.synopsis("rel").sample.strata
        assert "2" in fault.detail

    def test_explicit_key_targeting(self, system):
        sample = system.synopsis("rel").sample
        target = sorted(
            k for k, s in sample.strata.items() if s.sample_size > 0
        )[-1]
        fault = FaultInjector(system).drop_stratum("rel", key=target)
        assert fault.key == target
        assert target not in system.synopsis("rel").sample.strata

    def test_unknown_kind_rejected(self, system):
        with pytest.raises(AquaError, match="unknown fault kind"):
            inject(system, "gamma_rays", "rel")

    def test_unknown_key_rejected(self, system):
        with pytest.raises(AquaError, match="no stratum"):
            FaultInjector(system).drop_stratum("rel", key=("zz", "zz"))

    def test_corrupt_indices_detected_by_validation(self, system):
        FaultInjector(system).corrupt_row_indices("rel")
        issues = system.synopsis("rel").validate()
        assert any("out of bounds" in issue for issue in issues)

    def test_dropped_stratum_detected_by_coverage(self, system):
        FaultInjector(system).drop_stratum("rel")
        health = system.health("rel")
        assert health.status == "corrupt"
        assert any("cover" in issue for issue in health.issues)

    def test_empty_allocation_visible_in_synopsis(self, system):
        fault = FaultInjector(system).empty_allocation("rel")
        assert fault.key in system.synopsis("rel").empty_strata


# What the guard says on the first fresh-literal answer after each
# structural fault, a clean answer having come before (install route:
# the damaged sample re-materialised through ``_install``; patch route:
# ``synopsis.sample`` replaced, relations left as they were).
FRESH_SQL = "select a, b, sum(q) s from rel where q > -1 group by a, b order by a, b"
STRUCTURAL_FAULTS = (
    "drop_stratum",
    "corrupt_scale_factor",
    "truncate_sample",
    "empty_allocation",
    "corrupt_row_indices",
)
_COVERAGE = (
    "synopsis strata cover 1225 rows but 5000 were present at the last refresh"
)
_EXACT = {PROVENANCE_EXACT: 6}
_ONE_REPAIRED = {"repaired": 1, "synopsis": 5}
VERDICTS = {
    "drop_stratum": (_EXACT, {}, (_COVERAGE,)),
    "corrupt_scale_factor": (
        _EXACT,
        {},
        (
            "stratum ('a1', 'b1'): sample size 164 exceeds population 0",
            "stratum ('a1', 'b1'): corrupt scale factor 0.0",
            _COVERAGE,
        ),
    ),
    "truncate_sample": (
        _ONE_REPAIRED,
        {("a1", "b1"): "sample support 1 below minimum 2"},
        (),
    ),
    "empty_allocation": (_ONE_REPAIRED, {}, ()),
    "corrupt_row_indices": (
        _EXACT,
        {},
        (
            "stratum ('a1', 'b1'): row indices out of bounds for base table "
            "of 5000 rows",
        ),
    ),
}
# The patch route leaves the sample relation whole, so the emptied stratum's
# group is still estimated by the plan -- and flagged for having no support.
PATCH_VERDICTS = dict(
    VERDICTS,
    empty_allocation=(
        _ONE_REPAIRED,
        {("a1", "b1"): "sample support 0 below minimum 2; s_error is NaN"},
        (),
    ),
)


class TestFaultAfterCleanAnswer:
    """A sample that answered cleanly and is then damaged -- whichever way
    the damaged sample gets installed -- is judged on the very next answer."""

    @pytest.mark.parametrize("route", ["install", "patch"])
    @pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
    def test_fault_after_a_clean_verdict_is_caught_on_the_next_answer(
        self, system, monkeypatch, kind, route
    ):
        assert not system.answer(SQL).guard.degraded
        if route == "patch":
            def refuse(name, sample):
                raise RuntimeError("not materialisable")

            monkeypatch.setattr(system, "_install", refuse)
        inject(system, kind, "rel")
        report = system.answer(FRESH_SQL).guard
        counts, flagged, issues = (
            PATCH_VERDICTS if route == "patch" else VERDICTS
        )[kind]
        assert report.counts == counts
        assert report.flagged == flagged
        assert report.issues == issues
        assert (report.fallback_reason is not None) == bool(issues)

    def test_unguarded_answer_over_out_of_range_indices_is_a_typed_error(
        self, system
    ):
        """No guard to judge the sample first: reading its rows must still
        fail as a ``SynopsisCorruptError``, in the walk's own words."""
        assert not system.answer(SQL).guard.degraded
        inject(system, "corrupt_row_indices", "rel")
        with pytest.raises(SynopsisCorruptError) as caught:
            system.answer(FRESH_SQL, guard=False)
        (wording,) = VERDICTS["corrupt_row_indices"][2]
        assert wording in str(caught.value)
        assert isinstance(caught.value.__cause__, IndexError)
