"""Property tests: the combined-code group-id kernel against the record-array
implementation it replaced (kept here as the oracle)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnType, Schema, Table, col, group_ids_for
from repro.engine import groupby
from repro.engine.aggregates import Aggregate


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


NAN_VALUES = {**VALUES, ColumnType.FLOAT: st.sampled_from([-1.5, 0.0, 2.0, np.nan])}


@st.composite
def keyed_tables(draw, max_rows=30):
    """A table of 1-3 key columns (NaN among the floats) and a payload."""
    ctypes = draw(
        st.lists(st.sampled_from(list(NAN_VALUES)), min_size=1, max_size=3)
    )
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    names = [f"k{i}" for i in range(len(ctypes))]
    columns = {
        name: draw(
            st.lists(NAN_VALUES[ctype], min_size=num_rows, max_size=num_rows)
        )
        for name, ctype in zip(names, ctypes)
    }
    schema = Schema.of(*zip(names, ctypes), ("v", ColumnType.FLOAT))
    values = draw(
        st.lists(
            st.floats(-9, 9, allow_nan=False), min_size=num_rows, max_size=num_rows
        )
    )
    return Table.from_columns(schema, v=values, **columns), names


def same_key(left, right) -> bool:
    return all(a == b or (a != a and b != b) for a, b in zip(left, right))


class TestRowsInGroups:
    @given(keyed_tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_candidates_with_a_listed_key(self, drawn, data):
        """Keys drawn from the rows and from the value pools (so some have
        no rows); NaN matches NaN, and a longer string never matches a
        shorter column value it would truncate to."""
        table, names = drawn
        ctypes = [table.schema.column(name).ctype for name in names]
        rows = list(zip(*(table.column(name).tolist() for name in names)))
        pool = rows + [
            tuple(data.draw(NAN_VALUES[ctype]) for ctype in ctypes)
            for _ in range(3)
        ] + [tuple("ab" * 4 if c is ColumnType.STR else 0 for c in ctypes)]
        keys = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        candidates = data.draw(
            st.none()
            | st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
        )
        found = groupby.rows_in_groups(
            [table.column(n) for n in names],
            keys,
            None if candidates is None else np.array(candidates, dtype=bool),
        )
        assert found.tolist() == [
            i
            for i, row in enumerate(rows)
            if (candidates is None or candidates[i])
            and any(same_key(row, key) for key in keys)
        ]


class TestPartialMerge:
    @given(keyed_tables(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_partitions_merge_to_the_serial_grouping(self, drawn, parts):
        """NaN keys of every partition merge into one group, sorted last,
        as the serial scan groups them."""
        table, names = drawn
        aggregates = [Aggregate("sum", col("v"), "s"), Aggregate.count_star("c")]
        bounds = np.linspace(0, table.num_rows, parts + 1).astype(int)
        partials = [
            groupby.partial_group_by(table.slice(lo, hi), names, aggregates)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        merged = groupby.finalize_group_by(
            groupby.merge_group_partials(partials), table.schema, aggregates
        )
        serial = groupby.group_by(table, names, aggregates)
        assert merged.schema == serial.schema
        for name in merged.schema.names:
            got, want = merged.column(name), serial.column(name)
            assert got.dtype == want.dtype
            if got.dtype.kind == "f":
                np.testing.assert_allclose(got, want, rtol=1e-12, equal_nan=True)
            else:
                assert np.array_equal(got, want)
