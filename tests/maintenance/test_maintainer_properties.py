"""Property-based tests over all four allocations' maintainers with random
streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnType, Schema
from repro.maintenance import maintainer_for
from tests.maintenance.reservoir_reference import (
    HouseMaintainer,
    SenateMaintainer,
)

SCHEMA = Schema.of(("g", ColumnType.STR), ("v", ColumnType.INT))

streams = st.lists(
    st.tuples(
        st.sampled_from(["g0", "g1", "g2", "g3"]),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=0,
    max_size=300,
)

STRATEGIES = ("house", "senate", "basic_congress", "congress")


class TestMaintainerInvariants:
    @given(stream=streams, budget=st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_populations_always_exact(self, stream, budget):
        """Every maintainer tracks true group populations exactly."""
        rng = np.random.default_rng(0)
        truth = {}
        for g, __ in stream:
            truth[(g,)] = truth.get((g,), 0) + 1
        for strategy in STRATEGIES:
            maintainer = maintainer_for(strategy, SCHEMA, ["g"], budget, rng)
            maintainer.insert_many(stream)
            assert maintainer.snapshot().populations == truth

    @given(stream=streams, budget=st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_sampled_rows_come_from_stream(self, stream, budget):
        """Samples never invent tuples."""
        rng = np.random.default_rng(1)
        stream_set = set(stream)
        for strategy in STRATEGIES:
            maintainer = maintainer_for(strategy, SCHEMA, ["g"], budget, rng)
            maintainer.insert_many(stream)
            snapshot = maintainer.snapshot()
            for key, rows in snapshot.rows_by_group.items():
                for row in rows:
                    assert tuple(row) in stream_set
                    assert (str(row[0]),) == key

    @given(stream=streams, budget=st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_group_sizes_never_exceed_populations(self, stream, budget):
        rng = np.random.default_rng(2)
        for strategy in STRATEGIES:
            maintainer = maintainer_for(strategy, SCHEMA, ["g"], budget, rng)
            maintainer.insert_many(stream)
            snapshot = maintainer.snapshot()
            for key, rows in snapshot.rows_by_group.items():
                assert len(rows) <= snapshot.populations[key]

    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_house_senate_within_budget(self, stream):
        """The House and Senate reservoirs never exceed their fixed budget.

        A property of the paper's reservoir algorithms (the reproduction in
        ``reservoir_reference.py``): the Eq. 8 maintainer ``maintainer_for``
        returns keeps Bernoulli sizes, and only the scale-down bounds them.
        """
        rng = np.random.default_rng(3)
        budget = 20
        for maintainer_class in (HouseMaintainer, SenateMaintainer):
            maintainer = maintainer_class(SCHEMA, ["g"], budget, rng)
            maintainer.insert_many(stream)
            assert maintainer.snapshot().total_sample_size <= budget

    @given(stream=streams, budget=st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_small_streams_fully_retained_by_biased_schemes(
        self, stream, budget
    ):
        """When the whole stream fits the Senate share per group, Basic
        Congress and Congress retain everything."""
        rng = np.random.default_rng(4)
        truth = {}
        for g, __ in stream:
            truth[(g,)] = truth.get((g,), 0) + 1
        if not truth:
            return
        m = len(truth)
        if max(truth.values()) > budget / m:
            return  # some group exceeds its guaranteed share; skip
        for strategy in ("basic_congress", "congress"):
            maintainer = maintainer_for(strategy, SCHEMA, ["g"], budget, rng)
            maintainer.insert_many(stream)
            assert maintainer.snapshot().total_sample_size == len(stream)
