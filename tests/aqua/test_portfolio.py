"""SynopsisPortfolio: membership, budget resolution, staleness, caching.

The stale-prediction edge the ISSUE pins: an insert after a portfolio
build bumps the table version, so a cached budget resolution from before
the insert must never serve a post-insert query.
"""

import numpy as np
import pytest

from repro.aqua import (
    AquaError,
    AquaSystem,
    CostErrorModel,
    SynopsisPortfolio,
    SynopsisSpec,
    default_portfolio_specs,
)
from repro.aqua.portfolio import (
    REASON_BEST_EFFORT,
    REASON_ERROR_BUDGET,
    REASON_FORCED,
    REASON_TIME_BUDGET,
)
from repro.aqua.workload_log import QueryLog
from repro.core import Congress, House
from repro.engine import Column, ColumnType, Schema, Table
from repro.engine.schema import SchemaError
from repro.engine.sql import parse_query
from repro.errors import SynopsisMissingError

SQL = "SELECT a, SUM(q) AS s FROM rel GROUP BY a"


def _table(n=4000, seed=11):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("a", ColumnType.STR, "grouping"),
            Column("b", ColumnType.STR, "grouping"),
            Column("q", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table(
        schema,
        {
            "a": rng.choice(["x", "y", "z"], size=n, p=[0.7, 0.25, 0.05]),
            "b": rng.choice(["p", "q"], size=n),
            "q": rng.exponential(10.0, size=n),
        },
    )


@pytest.fixture
def system():
    sys_ = AquaSystem(space_budget=400, rng=np.random.default_rng(5))
    sys_.register_table("rel", _table())
    return sys_


@pytest.fixture
def built(system):
    system.build_portfolio("rel")
    return system


class TestSpecsAndDefaults:
    def test_default_ladder_has_three_members(self):
        specs = default_portfolio_specs(400, ("a", "b"))
        assert [s.name for s in specs] == ["fine", "mid", "coarse"]
        assert [s.budget for s in specs] == [400, 100, 25]

    def test_hot_member_added_for_dominant_grouping(self):
        log = QueryLog("rel", ("a", "b"))
        for _ in range(4):
            log.record(SQL)  # groups by just `a`
        specs = default_portfolio_specs(400, ("a", "b"), workload=log)
        hot = {s.name: s for s in specs}["hot"]
        assert hot.grouping_columns == ("a",)
        assert hot.budget == 200

    def test_no_hot_member_when_grouping_is_full_set(self):
        log = QueryLog("rel", ("a", "b"))
        log.record("SELECT a, b, SUM(q) AS s FROM rel GROUP BY a, b")
        specs = default_portfolio_specs(400, ("a", "b"), workload=log)
        assert [s.name for s in specs] == ["fine", "mid", "coarse"]

    def test_tiny_budget_rejected(self):
        with pytest.raises(AquaError):
            default_portfolio_specs(3, ("a",))

    def test_spec_validation(self):
        with pytest.raises(AquaError):
            SynopsisSpec(name="", budget=10, allocation=House())
        with pytest.raises(AquaError):
            SynopsisSpec(name="m", budget=0, allocation=House())


class TestCostErrorModel:
    def test_prediction_shrinks_with_sample_size(self):
        small = CostErrorModel.predicted_rel_error(16)
        large = CostErrorModel.predicted_rel_error(1024)
        assert large < small

    def test_prediction_grows_with_selectivity(self):
        keep_all = CostErrorModel.predicted_rel_error(100, selectivity=0.0)
        keep_some = CostErrorModel.predicted_rel_error(100, selectivity=0.9)
        assert keep_some > keep_all

    def test_unanswerable_sample_predicts_inf(self):
        assert CostErrorModel.predicted_rel_error(0) == float("inf")
        assert CostErrorModel.predicted_rel_error(
            10, selectivity=0.99
        ) == float("inf")

    def test_latency_line(self):
        model = CostErrorModel(
            overhead_seconds=1e-3, seconds_per_row=1e-6
        )
        assert model.predicted_seconds(1000) == pytest.approx(2e-3)
        assert model.predicted_seconds(0) == pytest.approx(1e-3)

    def test_observe_latency_moves_slope(self):
        model = CostErrorModel(seconds_per_row=1e-7, ewma_alpha=0.5)
        before = model.predicted_seconds(10_000)
        model.observe_latency(10_000, 1.0)  # much slower than predicted
        assert model.predicted_seconds(10_000) > before

    def test_observe_latency_ignores_garbage(self):
        model = CostErrorModel()
        before = model.predicted_seconds(1000)
        model.observe_latency(0, 1.0)
        model.observe_latency(1000, -1.0)
        model.observe_latency(1000, float("nan"))
        assert model.predicted_seconds(1000) == before

    def test_observe_rel_error_recalibrates_cv(self):
        model = CostErrorModel(cv=1.0, ewma_alpha=1.0)
        model.observe_rel_error(100, 2.0)
        assert model.cv == pytest.approx(
            2.0 * 10.0 / CostErrorModel.z_multiplier(model.confidence)
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(AquaError):
            CostErrorModel(confidence=1.0)
        with pytest.raises(AquaError):
            CostErrorModel(ewma_alpha=0.0)


class TestBuildPortfolio:
    def test_default_build_installs_decorated_members(self, built):
        portfolio = built.portfolio("rel")
        assert set(portfolio.members) == {"fine", "mid", "coarse"}
        names = built.catalog.names()
        for member in portfolio.members.values():
            assert member.synopsis.installed.sample_name in names
            assert "__pf_" in member.synopsis.installed.sample_name
        assert portfolio.coarsest().name == "coarse"

    def test_member_sizes_follow_budgets(self, built):
        portfolio = built.portfolio("rel")
        assert (
            portfolio.member("fine").sample_size
            > portfolio.member("mid").sample_size
            > portfolio.member("coarse").sample_size
        )

    def test_custom_specs(self, system):
        system.build_portfolio(
            "rel",
            specs=[
                SynopsisSpec("big", 300, Congress()),
                SynopsisSpec("tiny", 30, House()),
            ],
        )
        assert set(system.portfolio("rel").members) == {"big", "tiny"}

    def test_duplicate_member_names_rejected(self, system):
        with pytest.raises(AquaError):
            system.build_portfolio(
                "rel",
                specs=[
                    SynopsisSpec("m", 50, House()),
                    SynopsisSpec("m", 60, House()),
                ],
            )

    def test_unknown_grouping_column_rejected(self, system):
        with pytest.raises(SchemaError):
            system.build_portfolio(
                "rel",
                specs=[
                    SynopsisSpec(
                        "m", 50, House(), grouping_columns=("nope",)
                    )
                ],
            )

    def test_portfolio_before_build_raises(self, system):
        assert not system.has_portfolio("rel")
        with pytest.raises(SynopsisMissingError):
            system.portfolio("rel")

    def test_refresh_rebuilds_at_current_rows(self, built):
        rows_before = built.portfolio("rel").member("fine").rows_at_build
        built.insert_many("rel", [("x", "p", 1.0)] * 50)
        built.refresh_portfolio("rel")
        member = built.portfolio("rel").member("fine")
        assert member.rows_at_build == rows_before + 50
        assert member.staleness(member.rows_at_build) == 0


class TestResolution:
    def test_loose_error_budget_picks_cheapest_satisfying(self, built):
        portfolio = built.portfolio("rel")
        query = parse_query(SQL)
        choice = portfolio.resolve(query, max_rel_error=10.0)
        assert choice.reason == REASON_ERROR_BUDGET
        assert choice.member == "coarse"  # cheapest member suffices
        assert choice.within_error_budget

    def test_tight_error_budget_prefers_accuracy(self, built):
        portfolio = built.portfolio("rel")
        query = parse_query(SQL)
        loose = portfolio.resolve(query, max_rel_error=10.0)
        tight = portfolio.resolve(query, max_rel_error=1e-6)
        assert tight.reason == REASON_BEST_EFFORT
        assert (
            portfolio.member(tight.member).sample_size
            >= portfolio.member(loose.member).sample_size
        )

    def test_time_budget_picks_most_accurate_fitting(self, built):
        portfolio = built.portfolio("rel")
        query = parse_query(SQL)
        generous = portfolio.resolve(query, max_ms=10_000.0)
        assert generous.reason == REASON_TIME_BUDGET
        assert generous.member == "fine"
        hopeless = portfolio.resolve(query, max_ms=1e-6)
        assert hopeless.reason == REASON_BEST_EFFORT
        assert hopeless.member == "coarse"

    def test_forced_choice(self, built):
        portfolio = built.portfolio("rel")
        choice = portfolio.forced_choice("mid", parse_query(SQL))
        assert choice.member == "mid"
        assert choice.reason == REASON_FORCED

    def test_resolve_requires_a_budget(self, built):
        with pytest.raises(AquaError):
            built.portfolio("rel").resolve(parse_query(SQL))
        with pytest.raises(AquaError):
            built.portfolio("rel").resolve(
                parse_query(SQL), max_rel_error=0.0
            )
        with pytest.raises(AquaError):
            built.portfolio("rel").resolve(parse_query(SQL), max_ms=-1.0)

    def test_unknown_member_raises(self, built):
        with pytest.raises(AquaError):
            built.portfolio("rel").member("nope")

    def test_empty_portfolio_raises(self):
        portfolio = SynopsisPortfolio("rel", CostErrorModel())
        with pytest.raises(AquaError):
            portfolio.resolve(parse_query(SQL), max_rel_error=0.1)
        with pytest.raises(AquaError):
            portfolio.coarsest()


class TestResolutionCache:
    def test_repeat_resolution_is_cached(self, built):
        portfolio = built.portfolio("rel")
        query = parse_query(SQL)
        first = portfolio.resolve(query, max_rel_error=0.5, version=1)
        again = portfolio.resolve(query, max_rel_error=0.5, version=1)
        assert again is first
        assert portfolio.resolution_cache_size == 1

    def test_version_bump_misses_cache(self, built):
        portfolio = built.portfolio("rel")
        query = parse_query(SQL)
        portfolio.resolve(query, max_rel_error=0.5, version=1)
        portfolio.resolve(query, max_rel_error=0.5, version=2)
        assert portfolio.resolution_cache_size == 2

    def test_insert_invalidates_cached_budget_choice(self, built):
        """The stale-prediction edge: a post-insert budget query must be
        re-resolved, not served from the pre-insert cached choice."""
        query = parse_query(SQL)
        built.answer(query, max_rel_error=0.5)
        portfolio = built.portfolio("rel")
        size_before = portfolio.resolution_cache_size
        assert size_before >= 1
        built.insert("rel", ("z", "q", 123.0))
        # The insert's version bump dropped the pre-insert resolution.
        assert portfolio.resolution_cache_size == 0
        answer = built.answer(query, max_rel_error=0.5)
        assert portfolio.resolution_cache_size == 1
        assert answer.chosen_synopsis in portfolio.members
        promised = answer.promised_rel_error
        assert promised is None or promised <= 0.5 * (1 + 1e-9)

    def test_rebuild_clears_resolutions(self, built):
        portfolio = built.portfolio("rel")
        portfolio.resolve(parse_query(SQL), max_rel_error=0.5)
        assert portfolio.resolution_cache_size == 1
        built.refresh_portfolio("rel")
        rebuilt = built.portfolio("rel")
        assert rebuilt.resolution_cache_size == 0


class TestAnswerIntegration:
    def test_budget_answer_reports_choice_and_honors_bound(self, built):
        answer = built.answer(SQL, max_rel_error=0.2)
        assert answer.chosen_synopsis in built.portfolio("rel").members
        assert answer.predicted_rel_error is not None
        promised = answer.promised_rel_error
        assert promised is None or promised <= 0.2 * (1 + 1e-9)

    def test_use_synopsis_forces_member(self, built):
        answer = built.answer(SQL, use_synopsis="coarse")
        assert answer.chosen_synopsis == "coarse"

    def test_budget_without_portfolio_raises(self, system):
        with pytest.raises(SynopsisMissingError):
            system.answer(SQL, max_rel_error=0.2)

    def test_explain_shows_portfolio_choice(self, built):
        text = built.explain(SQL, max_rel_error=0.5)
        assert "portfolio" in text

    def test_describe_renders(self, built):
        text = built.portfolio("rel").describe()
        assert "fine" in text and "coarse" in text and "model:" in text
