"""Tests for the Basic Congress reservoir maintainer (Section 6, Theorem 6.1;
the reproduction in ``reservoir_reference.py``)."""

import numpy as np
import pytest

from repro.engine import ColumnType, Schema
from tests.maintenance.reservoir_reference import BasicCongressMaintainer


@pytest.fixture
def schema():
    return Schema.of(("g", ColumnType.STR), ("v", ColumnType.FLOAT))


def skewed_stream(rng, n, probabilities):
    labels = [f"g{i}" for i in range(len(probabilities))]
    groups = rng.choice(labels, size=n, p=list(probabilities))
    return list(zip(groups.tolist(), rng.normal(size=n).tolist()))


class TestInvariants:
    def test_reservoir_counts_match_membership(self, schema):
        rng = np.random.default_rng(2)
        maintainer = BasicCongressMaintainer(schema, ["g"], 200, rng)
        maintainer.insert_many(skewed_stream(rng, 5000, (0.8, 0.15, 0.05)))
        # x_g bookkeeping must equal actual reservoir membership.
        membership = {}
        for __, key, __row in maintainer._reservoir.items():
            membership[key] = membership.get(key, 0) + 1
        for key, count in membership.items():
            assert maintainer.reservoir_count(key) == count

    def test_no_duplicates_between_reservoir_and_delta(self, schema):
        rng = np.random.default_rng(3)
        maintainer = BasicCongressMaintainer(schema, ["g"], 100, rng)
        rows = skewed_stream(rng, 3000, (0.9, 0.07, 0.03))
        # Make rows unique so we can detect duplicates by value.
        rows = [(g, float(i)) for i, (g, __) in enumerate(rows)]
        maintainer.insert_many(rows)
        snapshot = maintainer.snapshot()
        seen = set()
        for group_rows in snapshot.rows_by_group.values():
            for row in group_rows:
                assert row not in seen
                seen.add(row)

    def test_tiny_group_fully_retained(self, schema, rng):
        maintainer = BasicCongressMaintainer(schema, ["g"], 100, rng)
        rows = [("big", float(i)) for i in range(5000)]
        rows[100:103] = [("tiny", -1.0), ("tiny", -2.0), ("tiny", -3.0)]
        maintainer.insert_many(rows)
        snapshot = maintainer.snapshot()
        assert len(snapshot.rows_by_group[("tiny",)]) == 3

    def test_populations_exact(self, schema, rng):
        maintainer = BasicCongressMaintainer(schema, ["g"], 50, rng)
        rows = skewed_stream(rng, 1000, (0.5, 0.5))
        maintainer.insert_many(rows)
        true_counts = {}
        for g, __ in rows:
            true_counts[(g,)] = true_counts.get((g,), 0) + 1
        assert maintainer.snapshot().populations == true_counts


class TestAllocationShape:
    def test_sizes_track_max_of_house_and_senate(self, schema):
        """E[size_g] should be ~max(house_g, senate_g) at budget Y."""
        rng = np.random.default_rng(4)
        probabilities = (0.85, 0.10, 0.05)
        budget, n = 300, 30_000
        trials = 8
        sums = {f"g{i}": 0.0 for i in range(3)}
        for __ in range(trials):
            maintainer = BasicCongressMaintainer(schema, ["g"], budget, rng)
            maintainer.insert_many(skewed_stream(rng, n, probabilities))
            sizes = maintainer.snapshot().sample_sizes()
            for i in range(3):
                sums[f"g{i}"] += sizes.get((f"g{i}",), 0)
        means = {g: total / trials for g, total in sums.items()}
        senate_share = budget / 3
        for i, p in enumerate(probabilities):
            expected = max(budget * p, senate_share)
            assert abs(means[f"g{i}"] - expected) / expected < 0.25

    def test_small_streams_keep_everything(self, schema, rng):
        maintainer = BasicCongressMaintainer(schema, ["g"], 1000, rng)
        rows = skewed_stream(rng, 100, (0.6, 0.4))
        maintainer.insert_many(rows)
        assert maintainer.snapshot().total_sample_size == 100


class TestUniformityWithinGroup:
    def test_each_group_member_equally_likely(self, schema):
        """Theorem 6.1: reservoir + delta is uniform within each group."""
        rng = np.random.default_rng(6)
        n_per_group, trials = 30, 1200
        counts = np.zeros(n_per_group)
        for __ in range(trials):
            maintainer = BasicCongressMaintainer(schema, ["g"], 20, rng)
            # Group g0 is large (30 of 60); g1 the other half.
            rows = []
            for i in range(n_per_group):
                rows.append(("g0", float(i)))
                rows.append(("g1", float(1000 + i)))
            maintainer.insert_many(rows)
            snapshot = maintainer.snapshot()
            for row in snapshot.rows_by_group.get(("g0",), []):
                counts[int(row[1])] += 1
        freqs = counts / trials
        # All positions should be kept equally often.
        assert freqs.std() / freqs.mean() < 0.2
