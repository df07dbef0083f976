"""Tests for Aqua's bound-method option and rewrite-strategy selection."""

import numpy as np
import pytest

from repro.aqua import AquaError, AquaSystem
from repro.rewrite import (
    Integrated,
    KeyNormalized,
    NestedIntegrated,
    recommend_strategy,
)


class TestBoundMethods:
    @pytest.fixture
    def census(self):
        from repro.synthetic import CensusConfig, generate_census

        return generate_census(CensusConfig(population=40_000, seed=3))

    def _answer(self, census, method, sql):
        aqua = AquaSystem(
            space_budget=2000,
            bound_method=method,
            rng=np.random.default_rng(0),
        )
        aqua.register_table("census", census)
        return aqua.answer(sql)

    def test_invalid_method_rejected(self):
        with pytest.raises(AquaError, match="bound_method"):
            AquaSystem(space_budget=10, bound_method="bootstrap")

    def test_hoeffding_bounds_attached(self, census):
        answer = self._answer(
            census, "hoeffding",
            "SELECT st, sum(sal) s FROM census GROUP BY st",
        )
        errors = answer.result.column("s_error")
        assert np.isfinite(errors).all()
        assert (errors > 0).all()

    def test_hoeffding_wider_than_chebyshev(self, census):
        """Distribution-free bounds cost width; both must be positive."""
        sql = "SELECT st, sum(sal) s FROM census GROUP BY st ORDER BY st"
        cheb = self._answer(census, "chebyshev", sql).result
        hoef = self._answer(census, "hoeffding", sql).result
        assert (
            hoef.column("s_error").mean() > cheb.column("s_error").mean()
        )

    def test_hoeffding_count_supported(self, census):
        answer = self._answer(
            census, "hoeffding",
            "SELECT gen, count(*) c FROM census GROUP BY gen",
        )
        assert np.isfinite(answer.result.column("c_error")).all()

    def test_hoeffding_avg_falls_back(self, census):
        """AVG has no clean Hoeffding form; Chebyshev is used instead."""
        answer = self._answer(
            census, "hoeffding",
            "SELECT st, avg(sal) m FROM census GROUP BY st",
        )
        # Still bounded -- the fallback worked.
        errors = answer.result.column("m_error")
        assert np.isfinite(errors).any()

    def test_hoeffding_coverage(self, census):
        """90% Hoeffding bounds must cover the exact answer >= 90%."""
        sql = "SELECT st, sum(sal) s FROM census GROUP BY st"
        aqua = AquaSystem(
            space_budget=2000, bound_method="hoeffding",
            rng=np.random.default_rng(1),
        )
        aqua.register_table("census", census)
        exact = {
            row["st"]: row["s"] for row in aqua.exact(sql).to_dicts()
        }
        covered = total = 0
        for __ in range(5):
            aqua.build_synopsis("census")  # fresh sample
            answer = aqua.answer(sql)
            for row in answer.result.to_dicts():
                total += 1
                if abs(row["s"] - exact[row["st"]]) <= row["s_error"]:
                    covered += 1
        assert covered / total >= 0.90


class TestOneBoundsPath:
    """An expansion-servable query is bounded from the per-stratum moments
    whether or not the caches are on; the knobs only decide what is kept."""

    QUERIES = (
        "SELECT st, sum(sal) s, avg(sal) m FROM census GROUP BY st",
        "SELECT st, gen, count(*) c FROM census WHERE sal > 30000 "
        "GROUP BY st, gen ORDER BY st, gen",
        "SELECT sum(sal) s FROM census WHERE sal < 50000",
    )

    @pytest.fixture(scope="class")
    def census(self):
        from repro.synthetic import CensusConfig, generate_census

        return generate_census(CensusConfig(population=40_000, seed=3))

    def _system(self, census, **knobs):
        aqua = AquaSystem(
            space_budget=2000, rng=np.random.default_rng(0), **knobs
        )
        aqua.register_table("census", census)
        return aqua

    @pytest.mark.parametrize("knobs", [{"cache": False}], ids=["no_cache"])
    def test_same_bits_with_and_without_the_caches(self, census, knobs):
        default = self._system(census)
        other = self._system(census, **knobs)
        assert other.rollup_index is None
        for sql in self.QUERIES:
            want, got = default.answer(sql).result, other.answer(sql).result
            assert got.schema.names == want.schema.names
            for name in want.schema.names:
                assert np.array_equal(
                    got.column(name), want.column(name), equal_nan=name.endswith("_error")
                ), (sql, name)


class TestRecommendStrategy:
    def test_rare_updates_small_groups(self):
        assert isinstance(recommend_strategy(0.0, 100), NestedIntegrated)

    def test_rare_updates_many_groups(self):
        assert isinstance(recommend_strategy(1.0, 50_000), Integrated)

    def test_heavy_updates(self):
        assert isinstance(recommend_strategy(10_000.0), KeyNormalized)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            recommend_strategy(-1.0)

    def test_boundaries(self):
        # 1000 updates/query is still "moderate"; just above tips over.
        assert isinstance(recommend_strategy(1000.0, 50_000), Integrated)
        assert isinstance(recommend_strategy(1000.01), KeyNormalized)
        # num_groups_hint boundary: 1000 groups still favors per-group
        # scaling, 1001 favors plain Integrated.
        assert isinstance(recommend_strategy(0.0, 1000), NestedIntegrated)
        assert isinstance(recommend_strategy(0.0, 1001), Integrated)
