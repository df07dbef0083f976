"""Unit and statistical tests for Bernoulli sampling helpers."""

import numpy as np
import pytest

from repro.sampling import BernoulliSampler, subsample_exact, thin_to_probability


class TestBernoulliSampler:
    def test_probability_zero_never_accepts(self, rng):
        sampler = BernoulliSampler(rng)
        assert not any(sampler.accept(0.0) for __ in range(100))
        assert sampler.accepted == 0
        assert sampler.offered == 100

    def test_probability_one_always_accepts(self, rng):
        sampler = BernoulliSampler(rng)
        assert all(sampler.accept(1.0) for __ in range(100))

    def test_out_of_range_clamped(self, rng):
        sampler = BernoulliSampler(rng)
        assert sampler.accept(5.0)  # clamped to 1
        assert not sampler.accept(-2.0)  # clamped to 0

    def test_acceptance_rate(self):
        rng = np.random.default_rng(4)
        sampler = BernoulliSampler(rng)
        n = 20_000
        for __ in range(n):
            sampler.accept(0.3)
        rate = sampler.accepted / sampler.offered
        assert abs(rate - 0.3) < 0.02


class TestThinToProbability:
    def test_no_op_when_equal(self, rng):
        items = list(range(10))
        assert thin_to_probability(items, 0.5, 0.5, rng) == items

    def test_upward_thinning_rejected(self, rng):
        with pytest.raises(ValueError):
            thin_to_probability([1], 0.2, 0.5, rng)

    def test_zero_old_probability(self, rng):
        assert thin_to_probability([1, 2], 0.0, 0.0, rng) == []

    def test_marginal_probability(self):
        """Each item retained w.p. new/old across many trials."""
        rng = np.random.default_rng(8)
        old, new, trials, n = 0.8, 0.2, 2000, 20
        kept_counts = np.zeros(n)
        for __ in range(trials):
            kept = thin_to_probability(list(range(n)), old, new, rng)
            for item in kept:
                kept_counts[item] += 1
        freqs = kept_counts / trials
        assert np.all(np.abs(freqs - new / old) < 0.05)

    def test_order_preserved(self, rng):
        kept = thin_to_probability(list(range(100)), 1.0, 0.5, rng)
        assert kept == sorted(kept)


class TestSubsampleExact:
    def test_exact_size(self, rng):
        out = subsample_exact(list(range(50)), 7, rng)
        assert len(out) == 7
        assert len(set(out)) == 7  # without replacement

    def test_size_larger_than_input(self, rng):
        items = [1, 2, 3]
        assert subsample_exact(items, 10, rng) == items

    def test_zero_size(self, rng):
        assert subsample_exact([1, 2, 3], 0, rng) == []

    def test_array_in_array_out(self):
        items = np.arange(100, 150)
        picked = subsample_exact(items, 7, np.random.default_rng(3))
        listed = subsample_exact(list(range(100, 150)), 7, np.random.default_rng(3))
        assert isinstance(picked, np.ndarray)
        assert picked.tolist() == listed
        assert subsample_exact(items, 60) is items
