"""Unit and statistical tests for reservoir sampling (the Section 6
reproduction in ``tests/maintenance/reservoir_reference.py``)."""

import numpy as np
import pytest

from tests.maintenance.reservoir_reference import (
    ReservoirSampler,
    SkipReservoirSampler,
    reservoir_sample,
)


@pytest.mark.parametrize("cls", [ReservoirSampler, SkipReservoirSampler])
class TestCommonBehaviour:
    def test_fills_to_capacity(self, cls, rng):
        sampler = cls(5, rng)
        sampler.extend(range(3))
        assert sorted(sampler.items()) == [0, 1, 2]
        sampler.extend(range(3, 10))
        assert len(sampler) == 5
        assert sampler.seen == 10

    def test_items_subset_of_stream(self, cls, rng):
        sampler = cls(10, rng)
        sampler.extend(range(100))
        assert set(sampler.items()) <= set(range(100))
        assert len(set(sampler.items())) == 10  # without replacement

    def test_zero_capacity(self, cls, rng):
        sampler = cls(0, rng)
        sampler.extend(range(10))
        assert len(sampler) == 0
        assert sampler.seen == 10

    def test_negative_capacity_rejected(self, cls, rng):
        with pytest.raises(ValueError):
            cls(-1, rng)

    def test_shrink_to(self, cls, rng):
        sampler = cls(10, rng)
        sampler.extend(range(50))
        evicted = sampler.shrink_to(4)
        assert len(sampler) == 4
        assert len(evicted) == 6
        assert set(evicted).isdisjoint(set(sampler.items()))

    def test_shrink_negative_rejected(self, cls, rng):
        sampler = cls(5, rng)
        with pytest.raises(ValueError):
            sampler.shrink_to(-1)

    def test_inclusion_probability_uniform(self, cls):
        """Every stream item should appear with probability ~k/n."""
        rng = np.random.default_rng(99)
        n, k, trials = 20, 5, 3000
        counts = np.zeros(n)
        for __ in range(trials):
            sampler = cls(k, rng)
            sampler.extend(range(n))
            for item in sampler.items():
                counts[item] += 1
        freqs = counts / trials
        expected = k / n
        # 4-sigma band for a binomial proportion.
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freqs - expected) < 4 * sigma + 0.01)


class TestReservoirEvictionNotice:
    def test_offer_returns_none_while_filling(self, rng):
        sampler = ReservoirSampler(3, rng)
        assert sampler.offer("a") is None
        assert sampler.offer("b") is None
        assert sampler.offer("c") is None

    def test_offer_returns_someone_once_full(self, rng):
        sampler = ReservoirSampler(2, rng)
        sampler.extend(["a", "b"])
        evicted = sampler.offer("c")
        # Either "c" bounced or it displaced one of a/b.
        assert evicted in ("a", "b", "c")
        assert len(sampler) == 2

    def test_grow_to_only_increases(self, rng):
        sampler = ReservoirSampler(2, rng)
        sampler.grow_to(5)
        assert sampler.capacity == 5
        with pytest.raises(ValueError):
            sampler.grow_to(1)


class TestSkipDistribution:
    def test_matches_plain_reservoir_statistics(self):
        """Skip-based and per-item reservoirs draw from the same law."""
        rng = np.random.default_rng(7)
        n, k, trials = 30, 6, 2000
        first_item_count = 0
        for __ in range(trials):
            sampler = SkipReservoirSampler(k, rng)
            sampler.extend(range(n))
            if 0 in sampler.items():
                first_item_count += 1
        freq = first_item_count / trials
        expected = k / n
        assert abs(freq - expected) < 0.03


class TestOneShot:
    def test_reservoir_sample_size(self, rng):
        out = reservoir_sample(range(100), 7, rng)
        assert len(out) == 7

    def test_reservoir_sample_small_stream(self, rng):
        out = reservoir_sample(range(3), 10, rng)
        assert sorted(out) == [0, 1, 2]
