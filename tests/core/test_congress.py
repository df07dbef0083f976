"""Unit tests for Basic Congress and Congress (Equations 4-6)."""

import numpy as np
import pytest

from repro.core import (
    BasicCongress,
    Congress,
    House,
    Senate,
    congress_share_table,
    senate_share,
)
from repro.engine import Column, ColumnType, Schema
from repro.maintenance import maintainer_for
from repro.sampling import all_groupings


COUNTS = {
    ("a1", "b1"): 5000,
    ("a1", "b2"): 300,
    ("a2", "b1"): 150,
    ("a2", "b2"): 50,
}
G = ("A", "B")
X = 110.0


class TestBasicCongress:
    def test_pre_scaling_is_max_of_house_senate(self):
        basic = BasicCongress().allocate(COUNTS, G, X)
        house = House().allocate(COUNTS, G, X)
        senate = Senate().allocate(COUNTS, G, X)
        for group in COUNTS:
            assert basic.pre_scaling[group] == pytest.approx(
                max(house.fractional[group], senate.fractional[group])
            )

    def test_scaled_total_is_budget(self):
        basic = BasicCongress().allocate(COUNTS, G, X)
        assert basic.total_fractional == pytest.approx(X)

    def test_uniform_distribution_no_scaling(self):
        counts = {("a", "p"): 100, ("a", "q"): 100, ("b", "p"): 100, ("b", "q"): 100}
        basic = BasicCongress().allocate(counts, G, 40)
        assert basic.scale_down_factor == pytest.approx(1.0)

    def test_pre_scaling_total_below_2x(self):
        # Paper: X' <= (2 m_T - 1)/m_T * X - m_T + 1 < 2X.
        basic = BasicCongress().allocate(COUNTS, G, X)
        assert sum(basic.pre_scaling.values()) < 2 * X


class TestCongress:
    def test_share_table_covers_power_set(self):
        table = congress_share_table(COUNTS, G, X)
        assert set(table) == set(all_groupings(G))

    def test_share_table_matches_equation_4(self):
        table = congress_share_table(COUNTS, G, X)
        for target in all_groupings(G):
            expected = senate_share(COUNTS, G, target, X)
            for group in COUNTS:
                assert table[tuple(target)][group] == pytest.approx(
                    expected[group]
                )

    def test_pre_scaling_is_row_max(self):
        congress = Congress().allocate(COUNTS, G, X)
        table = congress_share_table(COUNTS, G, X)
        for group in COUNTS:
            assert congress.pre_scaling[group] == pytest.approx(
                max(table[t][group] for t in table)
            )

    def test_equation_5_scaling(self):
        congress = Congress().allocate(COUNTS, G, X)
        total_pre = sum(congress.pre_scaling.values())
        for group in COUNTS:
            assert congress.fractional[group] == pytest.approx(
                X * congress.pre_scaling[group] / total_pre
            )

    def test_f_guarantee_every_grouping(self):
        """Every group under every grouping gets >= f of its S1 share."""
        congress = Congress().allocate(COUNTS, G, X)
        f = congress.scale_down_factor
        table = congress_share_table(COUNTS, G, X)
        for target, shares in table.items():
            for group, s1_share in shares.items():
                assert congress.fractional[group] >= f * s1_share - 1e-9

    def test_f_bounds(self):
        congress = Congress().allocate(COUNTS, G, X)
        assert 2.0 ** (-len(G)) < congress.scale_down_factor <= 1.0

    def test_dominates_senate_minimum(self):
        """Congress gives the smallest group at least f * Senate share."""
        congress = Congress().allocate(COUNTS, G, X)
        f = congress.scale_down_factor
        senate = Senate().allocate(COUNTS, G, X)
        smallest = ("a2", "b2")
        assert congress.fractional[smallest] >= f * senate.fractional[smallest] - 1e-9

    def test_single_grouping_column(self):
        counts = {("g1",): 90, ("g2",): 10}
        congress = Congress().allocate(counts, ("A",), 20)
        # max(house, senate) = max(18, 10)=18 for g1; max(2,10)=10 for g2.
        assert congress.pre_scaling[("g1",)] == pytest.approx(18)
        assert congress.pre_scaling[("g2",)] == pytest.approx(10)
        assert congress.total_fractional == pytest.approx(20)

    def test_restricted_groupings_reduce_to_basic(self):
        """Congress over {∅, G} must equal Basic Congress."""
        restricted = Congress(groupings=[(), G]).allocate(COUNTS, G, X)
        basic = BasicCongress().allocate(COUNTS, G, X)
        for group in COUNTS:
            assert restricted.fractional[group] == pytest.approx(
                basic.fractional[group]
            )

    def test_restricted_single_grouping_is_senate(self):
        restricted = Congress(groupings=[G]).allocate(COUNTS, G, X)
        senate = Senate().allocate(COUNTS, G, X)
        for group in COUNTS:
            assert restricted.fractional[group] == pytest.approx(
                senate.fractional[group]
            )

    def test_unknown_grouping_column_rejected(self):
        with pytest.raises(ValueError):
            Congress(groupings=[("Z",)]).allocate(COUNTS, G, X)

    def test_empty_restriction_rejected_by_allocate_and_maintainer(self):
        """``Congress([])`` sizes no grouping: both users of its 𝒯 say so,
        not a bare "max() arg is an empty sequence" or an always-empty
        maintained sample."""
        schema = Schema(
            [
                Column("g", ColumnType.STR, "grouping"),
                Column("v", ColumnType.FLOAT, "aggregate"),
            ]
        )
        counts = {("g1",): 90, ("g2",): 10}
        with pytest.raises(ValueError, match="empty grouping restriction"):
            Congress([]).allocate(counts, ("g",), 20)
        with pytest.raises(ValueError, match="empty grouping restriction"):
            maintainer_for(
                Congress([]), schema, ("g",), 20, np.random.default_rng(0)
            )

    def test_name_variants(self):
        assert Congress().name == "congress"
        assert Congress(groupings=[(), ("A",)]).name == "congress[-;A]"
