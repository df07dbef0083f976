"""Unit tests for maintainer plumbing: KeyExtractor and MaintainedSample.

``KeyExtractor`` and ``MaintainedSample.from_groups`` are the reservoir
maintainers' row-tuple plumbing, kept in ``reservoir_reference.py``.
"""

import numpy as np
import pytest

from repro.engine import ColumnType, Schema, SchemaError
from tests.maintenance.reservoir_reference import KeyExtractor, MaintainedSample


@pytest.fixture
def schema():
    return Schema.of(
        ("a", ColumnType.STR), ("b", ColumnType.INT), ("v", ColumnType.FLOAT)
    )


class TestKeyExtractor:
    def test_extracts_in_grouping_order(self, schema):
        extract = KeyExtractor(schema, ["b", "a"])
        assert extract(("x", 7, 1.0)) == (7, "x")

    def test_normalizes_numpy_scalars(self, schema):
        extract = KeyExtractor(schema, ["a"])
        key = extract((np.str_("x"), np.int64(1), np.float64(2.0)))
        assert key == ("x",)
        assert type(key[0]) is str

    def test_unknown_column_rejected(self, schema):
        with pytest.raises(SchemaError):
            KeyExtractor(schema, ["missing"])


class TestMaintainedSample:
    def _sample(self, schema):
        return MaintainedSample.from_groups(
            schema=schema,
            grouping_columns=("a",),
            rows_by_group={
                ("x",): [("x", 1, 1.0), ("x", 2, 2.0)],
                ("y",): [("y", 3, 3.0)],
            },
            populations={("x",): 10, ("y",): 3},
        )

    def test_sizes(self, schema):
        sample = self._sample(schema)
        assert sample.total_sample_size == 3
        assert sample.sample_sizes() == {("x",): 2, ("y",): 1}

    def test_to_stratified_populations(self, schema):
        stratified = self._sample(schema).to_stratified()
        assert stratified.stratum(("x",)).population == 10
        assert stratified.stratum(("x",)).scale_factor == pytest.approx(5.0)
        assert stratified.stratum(("y",)).scale_factor == pytest.approx(3.0)

    def test_to_stratified_base_rows(self, schema):
        stratified = self._sample(schema).to_stratified()
        assert stratified.base_table.num_rows == 3
        # Row indices must be disjoint and cover the base table.
        all_indices = sorted(
            int(i)
            for stratum in stratified.strata.values()
            for i in stratum.row_indices
        )
        assert all_indices == [0, 1, 2]

    def test_estimators_work_on_maintained(self, schema):
        from repro.estimators import estimate_single

        stratified = self._sample(schema).to_stratified()
        single = estimate_single(stratified, "count", None)
        # 2 tuples scaled by 5 + 1 tuple scaled by 3 = 13 = total population.
        assert single.value == pytest.approx(13.0)

    def test_empty_sample(self, schema):
        sample = MaintainedSample.from_groups(
            schema=schema, grouping_columns=("a",),
            rows_by_group={}, populations={},
        )
        stratified = sample.to_stratified()
        assert stratified.total_sample_size == 0

    def test_missing_population_defaults_to_sample_size(self, schema):
        sample = MaintainedSample.from_groups(
            schema=schema,
            grouping_columns=("a",),
            rows_by_group={("x",): [("x", 1, 1.0)]},
            populations={},
        )
        stratified = sample.to_stratified()
        assert stratified.stratum(("x",)).population == 1
