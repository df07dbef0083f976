"""Tests for one-pass construction drivers."""

import numpy as np
import pytest

from repro.core import Congress, House, Senate, allocate_from_table
from repro.maintenance import (
    CongressMaintainer,
    CountDataCube,
    construct_from_cube,
    construct_one_pass,
    maintainer_for,
    subsample_to_budget,
)
from tests.maintenance.reservoir_reference import MaintainedSample


class TestSubsampleToBudget:
    def _maintained(self, sizes, schema):
        rows_by_group = {
            (f"g{i}",): [(f"g{i}", float(j)) for j in range(size)]
            for i, size in enumerate(sizes)
        }
        populations = {key: len(rows) * 10 for key, rows in rows_by_group.items()}
        return MaintainedSample.from_groups(
            schema=schema,
            grouping_columns=("g",),
            rows_by_group=rows_by_group,
            populations=populations,
        )

    @pytest.fixture
    def schema(self):
        from repro.engine import ColumnType, Schema

        return Schema.of(("g", ColumnType.STR), ("v", ColumnType.FLOAT))

    def test_exact_total(self, schema, rng):
        maintained = self._maintained([50, 30, 20], schema)
        out = subsample_to_budget(maintained, 60, rng)
        assert out.total_sample_size == 60

    def test_proportional_shares(self, schema, rng):
        maintained = self._maintained([80, 20], schema)
        out = subsample_to_budget(maintained, 50, rng)
        sizes = out.sample_sizes()
        assert sizes[("g0",)] == 40
        assert sizes[("g1",)] == 10

    def test_no_op_when_under_budget(self, schema, rng):
        maintained = self._maintained([10, 10], schema)
        out = subsample_to_budget(maintained, 100, rng)
        assert out is maintained

    def test_populations_preserved(self, schema, rng):
        maintained = self._maintained([50, 50], schema)
        out = subsample_to_budget(maintained, 40, rng)
        assert out.populations == maintained.populations


class TestConstructOnePass:
    @pytest.mark.parametrize(
        "strategy", ["house", "senate", "basic_congress", "congress"]
    )
    def test_size_within_budget(self, strategy, skewed_table, rng):
        sample = construct_one_pass(
            strategy, skewed_table, skewed_table.schema, ["a", "b"], 500, rng
        )
        assert sample.total_sample_size <= 500
        if strategy != "senate":  # senate's lazy shrink may under-fill
            assert sample.total_sample_size == 500

    def test_congress_one_pass_tracks_two_pass(self, skewed_table):
        """Streaming construction approximates the exact allocation.

        The one-pass path draws each group at its *pre-scaling* target
        (capped by the group population -- you cannot retain more tuples
        than exist) and then scales every group down uniformly to the
        budget, so the expected size is ``f * min(pre_scaling_g, n_g)``
        with ``f = X / sum_j min(pre_scaling_j, n_j)``.
        """
        rng = np.random.default_rng(9)
        budget = 1000
        allocation = allocate_from_table(
            Congress(), skewed_table, ["a", "b"], budget
        )
        capped_pre = {
            key: min(value, allocation.populations[key])
            for key, value in allocation.pre_scaling.items()
        }
        factor = budget / sum(capped_pre.values())
        trials = 5
        sums = {}
        for __ in range(trials):
            sample = construct_one_pass(
                "congress", skewed_table, skewed_table.schema,
                ["a", "b"], budget, rng,
            )
            for key, size in sample.sample_sizes().items():
                sums[key] = sums.get(key, 0) + size
        for key, pre in capped_pre.items():
            expected = factor * pre
            mean_size = sums.get(key, 0) / trials
            assert abs(mean_size - expected) <= max(0.35 * expected, 8)

    def test_unknown_strategy(self, skewed_table, rng):
        with pytest.raises(ValueError, match="no maintainer"):
            construct_one_pass(
                "bogus", skewed_table, skewed_table.schema, ["a", "b"], 10, rng
            )

    def test_accepts_row_iterable(self, skewed_table, rng):
        # Congress's Eq. 8 sample overshoots the budget (its expected size,
        # the capped pre-scaling total, is well above X here), so the
        # scale-down fills it exactly
        sample = construct_one_pass(
            "congress",
            skewed_table.iter_rows(),
            skewed_table.schema,
            ["a", "b"],
            100,
            rng,
        )
        assert sample.total_sample_size == 100


class TestConstructFromCube:
    def test_matches_direct_build_sizes(self, skewed_table, rng):
        cube = CountDataCube.from_table(skewed_table, ["a", "b"])
        sample = construct_from_cube(Congress(), cube, skewed_table, 600, rng)
        allocation = allocate_from_table(
            Congress(), skewed_table, ["a", "b"], 600
        )
        assert sample.sample_sizes() == allocation.rounded()

    def test_works_for_all_strategies(self, skewed_table, rng):
        cube = CountDataCube.from_table(skewed_table, ["a", "b"])
        for strategy in (House(), Senate(), Congress()):
            sample = construct_from_cube(strategy, cube, skewed_table, 300, rng)
            assert sample.total_sample_size == 300


class TestMaintainerFactory:
    def test_factory_names(self, skewed_table, rng):
        """Each name is the Eq. 8 maintainer over its allocation's 𝒯."""
        schema = skewed_table.schema
        expected = {
            "house": ((),),
            "senate": (("a", "b"),),
            "basic_congress": ((), ("a", "b")),
            "congress": ((), ("a",), ("b",), ("a", "b")),
        }
        for name, groupings in expected.items():
            maintainer = maintainer_for(name, schema, ["a", "b"], 10, rng)
            assert isinstance(maintainer, CongressMaintainer)
            assert maintainer.cube.groupings == groupings
