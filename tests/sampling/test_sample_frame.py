"""The per-sample frame: what it holds and that it is read-only."""

import numpy as np
import pytest

from repro.engine import Column, ColumnType, Schema, Table
from repro.sampling import StratifiedSample

NUM_BASE = 60


@pytest.fixture(scope="module")
def base():
    schema = Schema(
        [
            Column("a", ColumnType.STR, "grouping"),
            Column("b", ColumnType.INT, "grouping"),
            Column("q", ColumnType.FLOAT, "aggregate"),
        ]
    )
    rng = np.random.default_rng(3)
    return Table.from_columns(
        schema,
        a=rng.choice(["x", "y", "z"], size=NUM_BASE),
        b=rng.integers(0, 3, size=NUM_BASE),
        q=rng.normal(size=NUM_BASE),
    )


@pytest.fixture(scope="module")
def sample(base):
    allocation = {
        (a, b): 3 for a in ("x", "y", "z") for b in range(3)
    }
    allocation[("z", 2)] = 0
    return StratifiedSample.build(
        base, ["a", "b"], allocation, rng=np.random.default_rng(4)
    )


class TestFrameContents:
    def test_rows_follow_strata_insertion_order(self, sample):
        frame = sample.frame
        sampled = [s for s in sample.strata.values() if s.sample_size > 0]
        assert frame.num_strata == len(sampled)
        assert frame.stratum_keys == tuple(s.key for s in sampled)
        assert np.array_equal(
            frame.row_indices, np.concatenate([s.row_indices for s in sampled])
        )
        assert np.array_equal(
            frame.sf,
            np.concatenate(
                [np.full(s.sample_size, s.scale_factor) for s in sampled]
            ),
        )
        assert np.array_equal(
            frame.stratum_ids,
            np.concatenate(
                [np.full(s.sample_size, i) for i, s in enumerate(sampled)]
            ),
        )
        assert frame.rows == sample.base_table.take(frame.row_indices)
        assert frame.populations.tolist() == [s.population for s in sampled]
        assert frame.sizes.tolist() == [s.sample_size for s in sampled]
        assert frame.total_population == sample.total_population == NUM_BASE

    def test_built_once_per_sample_object(self, sample):
        assert sample.frame is sample.frame
        twin = StratifiedSample(
            sample.base_table, sample.grouping_columns, sample.strata
        )
        assert twin.frame is not sample.frame

    def test_arrays_are_read_only(self, sample):
        frame = sample.frame
        targets, __, key_arrays = frame.projection(["a"])
        arrays = [
            frame.row_indices, frame.sf, frame.stratum_ids, frame.populations,
            frame.sizes, frame.all_populations, frame.all_sizes, targets,
            *key_arrays,
            *frame.rows.columns().values(),
            *frame.key_table.columns().values(),
        ]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = array[:1]

    def test_projection_matches_project_key(self, sample):
        frame = sample.frame
        for group_by in (["a"], ["b"], ["b", "a"], ["a", "b"], []):
            targets, keys, key_arrays = frame.projection(group_by)
            assert frame.projection(group_by)[0] is targets  # memoised
            positions = [sample.grouping_columns.index(c) for c in group_by]
            projected = [
                tuple(key[i] for i in positions) for key in frame.stratum_keys
            ]
            assert keys == sorted(set(projected))
            assert [keys[t] for t in targets] == projected
            assert [tuple(c.tolist()) for c in key_arrays] == [
                tuple(key[j] for key in keys) for j in range(len(group_by))
            ]

    def test_expected_groups_count_unsampled_strata(self, sample):
        # ("z", 2) holds no sample tuple but is populated: still expected
        assert sample.stratum(("z", 2)).sample_size == 0
        assert ("z",) in sample.frame.expected_groups(["a"])
        assert (2, "z") in sample.frame.expected_groups(["b", "a"])
        assert sample.frame.expected_groups(["a"]) == {("x",), ("y",), ("z",)}

    def test_empty_sample(self, base):
        empty = StratifiedSample.build(base, ["a", "b"], {})
        frame = empty.frame
        assert frame.num_strata == 0
        assert len(frame.row_indices) == len(frame.sf) == 0
        assert frame.rows.num_rows == 0
