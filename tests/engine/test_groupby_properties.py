"""Property tests: the combined-code group-id kernel against the record-array
implementation it replaced (kept here as the oracle)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnType, Schema, Table, group_ids_for
from repro.engine import groupby
from repro.engine.groupby import align_rows, factorize


def record_group_ids(table, key_columns):
    """The old kernel: ``np.unique`` over a record array of the key columns."""
    if not key_columns:
        return np.zeros(table.num_rows, dtype=np.int64), [()], 1
    arrays = [table.column(name) for name in key_columns]
    if len(arrays) == 1:
        uniques, ids = np.unique(arrays[0], return_inverse=True)
        keys = [(value,) for value in uniques.tolist()]
        return ids.astype(np.int64), keys, len(keys)
    record = np.rec.fromarrays(arrays)
    uniques, ids = np.unique(record, return_inverse=True)
    keys = [tuple(np.asarray(u).tolist()) for u in uniques]
    return ids.astype(np.int64), keys, len(keys)


VALUES = {
    ColumnType.INT: st.integers(min_value=-3, max_value=3),
    ColumnType.FLOAT: st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e300]),
    ColumnType.STR: st.sampled_from(["", "a", "ab", "b", "é", "Z"]),
}


@st.composite
def tables(draw, max_columns=4, max_rows=40):
    """A table of 0-4 INT/FLOAT/STR key columns and 0-40 rows."""
    ctypes = draw(st.lists(st.sampled_from(list(VALUES)), max_size=max_columns))
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    names = [f"k{i}" for i in range(len(ctypes))]
    columns = {
        name: draw(st.lists(VALUES[ctype], min_size=num_rows, max_size=num_rows))
        for name, ctype in zip(names, ctypes)
    }
    # a payload column, so a table without key columns still has rows
    schema = Schema.of(*zip(names, ctypes), ("v", ColumnType.INT))
    return Table.from_columns(schema, v=list(range(num_rows)), **columns), names


def assert_same_grouping(table, names):
    ids, keys, num = group_ids_for(table, names)
    want_ids, want_keys, want_num = record_group_ids(table, names)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, want_ids)
    assert keys == want_keys
    assert num == want_num
    for key in keys:
        assert all(not isinstance(value, np.generic) for value in key)


class TestAgainstRecordArrayOracle:
    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_same_ids_and_keys(self, drawn):
        assert_same_grouping(*drawn)

    @given(tables(), st.integers(min_value=2, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_same_under_recompaction(self, drawn, limit):
        """A tiny code limit forces the pairwise re-compaction on every
        shape of table; the grouping must not change."""
        with mock.patch.object(groupby, "_CODE_LIMIT", limit):
            assert_same_grouping(*drawn)

    def test_cardinality_product_past_int64(self):
        """Four columns of 2**16 distinct values: the plain mixed-radix code
        would need 64 bits, one more than ``int64`` has."""
        n = 2**16
        rng = np.random.default_rng(5)
        schema = Schema.of(*[(f"k{i}", ColumnType.INT) for i in range(4)])
        columns = {f"k{i}": rng.permutation(n) for i in range(4)}
        # repeat a few rows so that some groups hold more than one row
        for name in columns:
            columns[name] = np.concatenate([columns[name], columns[name][:100]])
        table = Table.from_columns(schema, **columns)
        assert_same_grouping(table, list(columns))
        assert group_ids_for(table, list(columns))[2] == n

    def test_nan_keys_share_one_group(self):
        """NaN keys compare equal to each other: one group per distinct
        combination of the other columns, sorted after every number.  (The
        record-array kernel gave every NaN row a group of its own under
        several keys and one shared group under a single key.)"""
        schema = Schema.of(("f", ColumnType.FLOAT), ("s", ColumnType.STR))
        table = Table.from_columns(
            schema,
            f=[np.nan, 1.0, np.nan, np.nan, 1.0],
            s=["x", "x", "x", "y", "x"],
        )
        ids, keys, num = group_ids_for(table, ["f", "s"])
        assert num == 3
        assert ids.tolist() == [1, 0, 1, 2, 0]
        assert keys[0] == (1.0, "x")
        assert np.isnan(keys[1][0]) and keys[1][1] == "x"
        assert np.isnan(keys[2][0]) and keys[2][1] == "y"
        single_ids, __, single_num = group_ids_for(table, ["f"])
        assert single_num == 2
        assert single_ids.tolist() == [1, 0, 1, 1, 0]


class TestAlignRows:
    @given(tables(max_columns=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_positions_match_a_dict_lookup(self, drawn, data):
        table, names = drawn
        if not names:
            return
        __, key_arrays = factorize([table.column(name) for name in names])
        num_groups = len(key_arrays[0])
        # the reference is a random subset of the distinct keys
        keep = np.array(
            data.draw(st.lists(st.booleans(), min_size=num_groups, max_size=num_groups)),
            dtype=bool,
        )
        reference = [column[keep] for column in key_arrays]
        index = {
            key: i for i, key in enumerate(zip(*(c.tolist() for c in reference)))
        }
        probe = [table.column(name) for name in names]
        want = [
            index.get(key, -1) for key in zip(*(c.tolist() for c in probe))
        ]
        assert align_rows(reference, probe).tolist() == want
