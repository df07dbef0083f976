"""Unit and statistical tests for the House and Senate reservoir maintainers
(the Section 6 reproduction in ``reservoir_reference.py``)."""

import numpy as np
import pytest

from tests.maintenance.reservoir_reference import HouseMaintainer, SenateMaintainer


def stream(rng, n, probabilities=(0.7, 0.2, 0.1)):
    """Rows (group, value) with the given group mix."""
    groups = rng.choice(["g0", "g1", "g2"], size=n, p=list(probabilities))
    values = rng.normal(size=n)
    return list(zip(groups.tolist(), values.tolist()))


@pytest.fixture
def schema():
    from repro.engine import ColumnType, Schema

    return Schema.of(("g", ColumnType.STR), ("v", ColumnType.FLOAT))


class TestHouseMaintainer:
    def test_reservoir_size_capped(self, schema, rng):
        maintainer = HouseMaintainer(schema, ["g"], 100, rng)
        maintainer.insert_many(stream(rng, 5000))
        snapshot = maintainer.snapshot()
        assert snapshot.total_sample_size == 100

    def test_populations_exact(self, schema, rng):
        rows = stream(rng, 2000)
        maintainer = HouseMaintainer(schema, ["g"], 50, rng)
        maintainer.insert_many(rows)
        snapshot = maintainer.snapshot()
        true_counts = {}
        for g, __ in rows:
            true_counts[(g,)] = true_counts.get((g,), 0) + 1
        assert snapshot.populations == true_counts

    def test_group_shares_proportional(self, schema):
        rng = np.random.default_rng(0)
        maintainer = HouseMaintainer(schema, ["g"], 500, rng)
        maintainer.insert_many(stream(rng, 20_000))
        sizes = maintainer.snapshot().sample_sizes()
        # Dominant group should hold roughly its population share.
        assert 0.6 < sizes[("g0",)] / 500 < 0.8

    def test_to_stratified_round_trip(self, schema, rng):
        maintainer = HouseMaintainer(schema, ["g"], 100, rng)
        maintainer.insert_many(stream(rng, 3000))
        stratified = maintainer.snapshot().to_stratified()
        assert stratified.total_sample_size == 100
        for stratum in stratified.strata.values():
            assert stratum.population >= stratum.sample_size

    def test_small_stream_fully_kept(self, schema, rng):
        maintainer = HouseMaintainer(schema, ["g"], 100, rng)
        maintainer.insert_many(stream(rng, 30))
        assert maintainer.snapshot().total_sample_size == 30

    def test_negative_capacity_rejected(self, schema, rng):
        with pytest.raises(ValueError):
            HouseMaintainer(schema, ["g"], -1, rng)


class TestSenateMaintainer:
    def test_equal_shares_across_skewed_groups(self, schema):
        rng = np.random.default_rng(1)
        maintainer = SenateMaintainer(schema, ["g"], 300, rng)
        maintainer.insert_many(stream(rng, 20_000, (0.9, 0.08, 0.02)))
        sizes = maintainer.snapshot().sample_sizes()
        assert sizes == {("g0",): 100, ("g1",): 100, ("g2",): 100}

    def test_total_within_budget(self, schema, rng):
        maintainer = SenateMaintainer(schema, ["g"], 100, rng)
        maintainer.insert_many(stream(rng, 10_000))
        assert maintainer.snapshot().total_sample_size <= 100

    def test_new_group_triggers_shrink(self, schema, rng):
        maintainer = SenateMaintainer(schema, ["g"], 100, rng)
        # One group fills its 100-slot reservoir...
        maintainer.insert_many([("g0", float(i)) for i in range(500)])
        assert maintainer.snapshot().sample_sizes() == {("g0",): 100}
        # ...then a second group appears: targets drop to 50 each.
        maintainer.insert_many([("g1", float(i)) for i in range(500)])
        sizes = maintainer.snapshot().sample_sizes()
        assert sizes[("g0",)] == 50
        assert sizes[("g1",)] == 50

    def test_tiny_group_fully_enumerated(self, schema, rng):
        maintainer = SenateMaintainer(schema, ["g"], 100, rng)
        rows = [("big", float(i)) for i in range(1000)] + [("tiny", 1.0)] * 5
        maintainer.insert_many(rows)
        sizes = maintainer.snapshot().sample_sizes()
        assert sizes[("tiny",)] == 5

    def test_num_groups(self, schema, rng):
        maintainer = SenateMaintainer(schema, ["g"], 100, rng)
        maintainer.insert_many(stream(rng, 1000))
        assert maintainer.num_groups == 3

    def test_per_group_uniformity(self, schema):
        """Within one group, every stream position is equally likely kept."""
        rng = np.random.default_rng(5)
        n, k, trials = 40, 10, 1500
        counts = np.zeros(n)
        for __ in range(trials):
            maintainer = SenateMaintainer(schema, ["g"], 20, rng)
            # Two groups -> per-group target 10.
            for i in range(n):
                maintainer.insert(("g0", float(i)))
                maintainer.insert(("g1", -1.0))
            for row in maintainer.snapshot().rows_by_group[("g0",)]:
                counts[int(row[1])] += 1
        freqs = counts / trials
        expected = k / n
        assert np.all(np.abs(freqs - expected) < 0.06)
