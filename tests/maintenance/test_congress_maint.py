"""Tests for the Eq. 8 Congress maintainer."""

import numpy as np
import pytest

from repro import AquaSystem
from repro.core import Congress
from repro.engine import Column, ColumnType, Schema, Table
from repro.maintenance import CongressMaintainer


@pytest.fixture
def schema():
    return Schema.of(
        ("a", ColumnType.STR), ("b", ColumnType.STR), ("v", ColumnType.FLOAT)
    )


def two_column_stream(rng, n):
    a = rng.choice(["a1", "a2"], size=n, p=[0.8, 0.2])
    b = rng.choice(["b1", "b2"], size=n, p=[0.9, 0.1])
    return list(zip(a.tolist(), b.tolist(), rng.normal(size=n).tolist()))


class TestProbabilityInvariant:
    def test_probability_monotonically_decreases(self, schema, rng):
        maintainer = CongressMaintainer(schema, ["a", "b"], 50, rng)
        previous = None
        for i in range(500):
            maintainer.insert(("a1", "b1", float(i)))
            current = maintainer.current_probability(("a1", "b1"))
            if previous is not None:
                assert current <= previous + 1e-12
            previous = current

    def test_expected_sizes_match_pre_scaling_targets(self, schema):
        """E[|S_g|] = max_T s_{g,T}(Y) -- Congress's pre-scaling column."""
        rng = np.random.default_rng(7)
        budget, n, trials = 200, 20_000, 6
        totals = {}
        counts_snapshot = None
        for __ in range(trials):
            maintainer = CongressMaintainer(schema, ["a", "b"], budget, rng)
            maintainer.insert_many(two_column_stream(rng, n))
            snapshot = maintainer.snapshot()
            counts_snapshot = snapshot.populations
            for key, rows in snapshot.rows_by_group.items():
                totals[key] = totals.get(key, 0) + len(rows)
        means = {key: value / trials for key, value in totals.items()}
        allocation = Congress().allocate(counts_snapshot, ("a", "b"), budget)
        for key, target in allocation.pre_scaling.items():
            capped = min(target, counts_snapshot[key])
            assert abs(means.get(key, 0) - capped) / max(capped, 1) < 0.30

    def test_settle_all_idempotent(self, schema, rng):
        maintainer = CongressMaintainer(schema, ["a", "b"], 100, rng)
        maintainer.insert_many(two_column_stream(rng, 2000))
        maintainer.settle_all()
        first = maintainer.snapshot().sample_sizes()
        # A second settle with no inserts must not evict anything.
        maintainer.settle_all()
        assert maintainer.snapshot().sample_sizes() == first

    def test_periodic_settling(self, schema, rng):
        """``settle_all`` between single inserts loads the rows buffered so
        far, and the loads add up to every row."""
        maintainer = CongressMaintainer(schema, ["a", "b"], 100, rng)
        for i, row in enumerate(two_column_stream(rng, 1000), 1):
            maintainer.insert(row)
            if i % 100 == 0:
                maintainer.settle_all()
                assert maintainer._cube.total == i
        snapshot = maintainer.snapshot()
        assert snapshot.total_sample_size > 0
        assert sum(snapshot.populations.values()) == 1000

    def test_negative_budget_rejected(self, schema, rng):
        with pytest.raises(ValueError):
            CongressMaintainer(schema, ["a", "b"], -5, rng)


class TestNewGroups:
    def test_new_group_gets_sampled(self, schema, rng):
        maintainer = CongressMaintainer(schema, ["a", "b"], 100, rng)
        maintainer.insert_many(two_column_stream(rng, 5000))
        # A brand-new tiny group arrives.
        for i in range(5):
            maintainer.insert(("new", "new", float(i)))
        snapshot = maintainer.snapshot()
        # Tiny group's selection probability is 1 (Senate share exceeds n_g).
        assert len(snapshot.rows_by_group.get(("new", "new"), [])) == 5

    def test_populations_track_cube(self, schema, rng):
        maintainer = CongressMaintainer(schema, ["a", "b"], 100, rng)
        rows = two_column_stream(rng, 3000)
        maintainer.insert_many(rows)
        true_counts = {}
        for a, b, __ in rows:
            true_counts[(a, b)] = true_counts.get((a, b), 0) + 1
        assert maintainer.snapshot().populations == true_counts


class TestExpectedSizesHelper:
    def test_matches_probability_times_population(self, schema, rng):
        maintainer = CongressMaintainer(schema, ["a", "b"], 100, rng)
        maintainer.insert_many(two_column_stream(rng, 2000))
        expected = maintainer.expected_sizes()
        for key, value in expected.items():
            probability = maintainer.current_probability(key)
            population = maintainer.cube.finest_counts()[key]
            assert value == pytest.approx(probability * population)


class TestNaNKeys:
    """Every NaN grouping value is one group, as ``factorize`` makes it."""

    @pytest.fixture
    def table(self):
        schema = Schema(
            [
                Column("g", ColumnType.FLOAT, "grouping"),
                Column("v", ColumnType.FLOAT, "aggregate"),
            ]
        )
        g = np.array([1.0, 2.0, np.nan] * 100)
        return Table.from_columns(schema, g=g, v=np.arange(300.0))

    def test_row_and_bulk_loads_count_one_nan_group(self, table):
        rows = CongressMaintainer(table.schema, ["g"], 30, np.random.default_rng(0))
        rows.insert_many(table.iter_rows())
        bulk = CongressMaintainer(table.schema, ["g"], 30, np.random.default_rng(0))
        bulk.insert_table(table)
        bulk.insert((float("nan"), 0.0))  # a NaN of its own, after the load
        assert rows.cube.num_groups(("g",)) == 3
        assert bulk.cube.num_groups(("g",)) == 3

    def test_maintained_strata_are_the_built_synopsis_strata(self, table):
        system = AquaSystem(space_budget=30, rng=np.random.default_rng(1))
        system.register_table("t", table, grouping_columns=["g"])
        built = system.synopsis("t").sample.strata
        system.enable_maintenance("t")
        system.insert("t", (float("nan"), 0.0))
        maintained = system.refresh_synopsis("t").sample.strata
        assert len(built) == 3
        assert set(maintained) == set(built)
        assert {key: s.population for key, s in maintained.items()} == {
            key: s.population + (key[0] != key[0]) for key, s in built.items()
        }
