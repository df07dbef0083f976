"""Unit tests for stratified point estimation (Section 5.1)."""

import numpy as np
import pytest

from repro.core import Congress, Senate, build_sample
from repro.engine import Comparison, col
from repro.estimators import estimate, estimate_single
from repro.sampling import StratifiedSample


@pytest.fixture
def full_sample(small_table, rng):
    """Sampling rate 1 in every stratum: estimates must be exact."""
    allocation = {key: 10 for key in
                  [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q")]}
    return StratifiedSample.build(small_table, ["a", "b"], allocation, rng=rng)


class TestExactWhenFullyEnumerated:
    def test_sum(self, full_sample):
        result = estimate(full_sample, "sum", "q", group_by=["a"])
        assert result[("x",)].value == pytest.approx(10.0)
        assert result[("y",)].value == pytest.approx(26.0)

    def test_count(self, full_sample):
        result = estimate(full_sample, "count", None, group_by=["a", "b"])
        assert all(e.value == pytest.approx(2.0) for e in result.values())

    def test_avg(self, full_sample):
        result = estimate(full_sample, "avg", "q", group_by=["b"])
        assert result[("p",)].value == pytest.approx((1 + 2 + 5 + 6) / 4)

    def test_variance_zero_with_full_enumeration(self, full_sample):
        result = estimate(full_sample, "sum", "q", group_by=["a"])
        # FPC = 0 when n == N: no sampling error at all.
        assert result[("x",)].variance == pytest.approx(0.0)

    def test_no_group_by(self, full_sample):
        single = estimate_single(full_sample, "sum", "q")
        assert single.value == pytest.approx(36.0)

    def test_predicate(self, full_sample):
        pred = Comparison.of(col("id"), "<=", 4)
        single = estimate_single(full_sample, "sum", "q", predicate=pred)
        assert single.value == pytest.approx(10.0)

    def test_expression_column(self, full_sample):
        result = estimate(full_sample, "sum", col("q") * 2, group_by=["a"])
        assert result[("x",)].value == pytest.approx(20.0)


class TestScaling:
    def test_half_sample_scales_up(self, small_table, rng):
        sample = StratifiedSample.build(
            small_table, ["a", "b"],
            {("x", "p"): 1, ("x", "q"): 1, ("y", "p"): 1, ("y", "q"): 1},
            rng=rng,
        )
        single = estimate_single(sample, "count", None)
        # Each stratum has 1 of 2 rows: count estimate = 4 * 2 = 8, exact.
        assert single.value == pytest.approx(8.0)

    def test_unbiasedness_of_sum(self, skewed_table):
        """Mean of many sampled estimates approaches the true sum."""
        exact = float(np.sum(skewed_table.column("q")))
        estimates = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            sample = build_sample(Congress(), skewed_table, ["a", "b"], 400, rng=rng)
            estimates.append(estimate_single(sample, "sum", "q").value)
        mean_est = float(np.mean(estimates))
        assert abs(mean_est - exact) / exact < 0.02

    def test_groups_missing_from_sample_are_absent(self, small_table, rng):
        sample = StratifiedSample.build(
            small_table, ["a", "b"], {("x", "p"): 2}, rng=rng
        )
        result = estimate(sample, "sum", "q", group_by=["a"])
        assert ("y",) not in result
        assert ("x",) in result

    def test_empty_sample(self, small_table, rng):
        sample = StratifiedSample.build(small_table, ["a", "b"], {}, rng=rng)
        assert estimate(sample, "sum", "q", group_by=["a"]) == {}
        assert estimate_single(sample, "sum", "q") is None


class TestVarianceEstimates:
    def test_variance_positive_for_partial_samples(self, skewed_table, rng):
        sample = build_sample(Senate(), skewed_table, ["a", "b"], 300, rng=rng)
        result = estimate(sample, "sum", "q", group_by=["a"])
        for group_estimate in result.values():
            assert group_estimate.variance > 0

    def test_std_error_is_sqrt_variance(self, skewed_table, rng):
        sample = build_sample(Senate(), skewed_table, ["a", "b"], 300, rng=rng)
        result = estimate(sample, "sum", "q", group_by=["a"])
        estimate_obj = next(iter(result.values()))
        assert estimate_obj.std_error == pytest.approx(
            np.sqrt(estimate_obj.variance)
        )

    def test_variance_calibration(self, skewed_table):
        """Empirical spread of estimates matches the estimated std error."""
        rng_values = []
        reported = []
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            sample = build_sample(
                Congress(), skewed_table, ["a", "b"], 500, rng=rng
            )
            single = estimate_single(sample, "sum", "q")
            rng_values.append(single.value)
            reported.append(single.std_error)
        empirical_std = float(np.std(rng_values))
        mean_reported = float(np.mean(reported))
        # Within a factor of 2 is plenty for 40 trials.
        assert 0.5 < empirical_std / mean_reported < 2.0

    def test_larger_samples_give_smaller_variance(self, skewed_table):
        rng = np.random.default_rng(0)
        small = build_sample(Congress(), skewed_table, ["a", "b"], 200, rng=rng)
        large = build_sample(Congress(), skewed_table, ["a", "b"], 2000, rng=rng)
        v_small = estimate_single(small, "sum", "q").variance
        v_large = estimate_single(large, "sum", "q").variance
        assert v_large < v_small


class TestValidation:
    def test_unknown_estimator(self, full_sample):
        with pytest.raises(ValueError):
            estimate(full_sample, "median", "q")

    def test_sum_requires_column(self, full_sample):
        with pytest.raises(ValueError):
            estimate(full_sample, "sum", None)


def loop_estimate(sample, func, column, predicate=None, group_by=()):
    """The estimator as it was: one masked pass over the whole sample per
    answer group, O(groups x rows).  ``{key: (value, variance, tuples)}``."""
    from repro.engine import group_ids_for

    strata = [s for s in sample.strata.values() if s.sample_size > 0]
    rows = sample.base_table.take(np.concatenate([s.row_indices for s in strata]))
    sf = np.concatenate([np.full(s.sample_size, s.scale_factor) for s in strata])
    stratum_ids = np.concatenate(
        [np.full(s.sample_size, i) for i, s in enumerate(strata)]
    )
    qualifies = (
        predicate.evaluate(rows) if predicate is not None
        else np.ones(rows.num_rows, dtype=bool)
    )
    values = (
        np.ones(rows.num_rows) if column is None
        else np.asarray(rows.column(column), dtype=np.float64)
    )
    answer_ids, answer_keys, num_answers = group_ids_for(rows, list(group_by))
    populations = np.array([s.population for s in strata], dtype=np.float64)
    sizes = np.array([s.sample_size for s in strata], dtype=np.float64)

    def expansion(y, mask):
        masked = np.where(mask, y, 0.0)
        sums = np.bincount(stratum_ids, weights=masked, minlength=len(strata))
        sumsq = np.bincount(
            stratum_ids, weights=masked * masked, minlength=len(strata)
        )
        means = sums / sizes
        sample_var = np.where(
            sizes > 1,
            np.maximum(sumsq - sizes * means * means, 0.0)
            / np.maximum(sizes - 1.0, 1.0),
            0.0,
        )
        fpc = 1.0 - sizes / populations
        return (
            float(np.sum(masked * sf)),
            float(np.sum(populations * populations * fpc * sample_var / sizes)),
        )

    out = {}
    for aid in range(num_answers):
        mask = (answer_ids == aid) & qualifies
        if not mask.any():
            continue
        if func == "avg":
            num, num_var = expansion(values, mask)
            den, den_var = expansion(np.ones_like(values), mask)
            value = num / den
            variance = (num_var + value * value * den_var) / (den * den)
        else:
            y = values if func == "sum" else np.ones_like(values)
            value, variance = expansion(y, mask)
        out[answer_keys[aid]] = (value, variance, int(mask.sum()))
    return out


class TestAgainstPerGroupLoop:
    """The (answer group, stratum)-cell bincounts give what the per-group
    loop gave, to the last few bits of a float sum."""

    @pytest.mark.parametrize("func", ["sum", "count", "avg"])
    @pytest.mark.parametrize(
        "group_by", [(), ("a",), ("b",), ("a", "b"), ("id",)]
    )
    @pytest.mark.parametrize("filtered", [False, True])
    def test_same_estimates(self, skewed_table, func, group_by, filtered):
        sample = build_sample(
            Congress(), skewed_table, ["a", "b"], 400,
            rng=np.random.default_rng(9),
        )
        predicate = Comparison.of(col("q"), ">", 4.0) if filtered else None
        column = None if func == "count" else "q"
        got = estimate(
            sample, func, column, predicate=predicate, group_by=group_by
        )
        want = loop_estimate(sample, func, column, predicate, group_by)
        assert list(got) == list(want)
        for key, (value, variance, tuples) in want.items():
            assert got[key].key == key
            assert got[key].value == pytest.approx(value, rel=1e-12)
            assert got[key].variance == pytest.approx(variance, rel=1e-9, abs=1e-9)
            assert got[key].sample_tuples == tuples
