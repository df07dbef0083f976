"""Property: a guard repair is ``exact()`` over exactly the flagged groups'
rows, bit for bit.

The repair rung recomputes flagged groups from the base table.  Here the
flagged subset is drawn at random over a synopsis answer, and the repaired
rows are checked against ``exact()`` of the same query on a table holding
only the base rows of those groups that pass the WHERE clause -- found by
plain Python comparison, NaN keys matching NaN -- under the serial and the
partitioned executor.  The synopsis answer comes from the query without its
WHERE, so some flagged groups can have no survivors: those must come back
in ``dropped``.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import AquaSystem, GuardPolicy  # noqa: E402
from repro.aqua import PROVENANCE_REPAIRED  # noqa: E402
from repro.engine import (  # noqa: E402
    Column,
    ColumnType,
    ParallelConfig,
    Schema,
    Table,
    parse_query,
)

KEY_VALUES = {
    ColumnType.INT: st.integers(min_value=-2, max_value=2),
    ColumnType.STR: st.sampled_from(["", "a", "bb", "cccc"]),
    ColumnType.FLOAT: st.sampled_from([-1.5, 0.0, 2.25, math.nan]),
}
MEASURES = st.one_of(
    st.floats(min_value=-50, max_value=50, allow_nan=False), st.just(math.nan)
)
WHERES = {None: lambda m: True, "m > 0": lambda m: m > 0}


def same_key(left, right) -> bool:
    return all(
        a == b or (a != a and b != b) for a, b in zip(left, right)
    )


@st.composite
def cases(draw):
    types = draw(
        st.lists(st.sampled_from(sorted(KEY_VALUES, key=str)), min_size=1, max_size=3)
    )
    rows = draw(
        st.lists(
            st.tuples(*(KEY_VALUES[t] for t in types), MEASURES),
            min_size=1,
            max_size=40,
        )
    )
    return types, rows, draw(st.sampled_from(sorted(WHERES, key=str)))


def register(types, rows, parallel, build) -> AquaSystem:
    names = [f"g{i}" for i in range(len(types))]
    schema = Schema(
        [Column(n, t, "grouping") for n, t in zip(names, types)]
        + [Column("m", ColumnType.FLOAT, "aggregate")]
    )
    system = AquaSystem(
        space_budget=max(len(rows) // 2, 1),
        rng=np.random.default_rng(0),
        parallel=parallel,
    )
    table = Table.from_rows(schema, rows) if rows else Table.empty(schema)
    system.register_table("t", table, build=build)
    return system


@settings(deadline=None, max_examples=30)
@given(
    case=cases(),
    flag_seed=st.integers(min_value=0, max_value=2**16),
    parallel=st.sampled_from(
        [False, ParallelConfig(max_workers=2, min_partition_rows=0)]
    ),
)
def test_repair_is_exact_over_the_flagged_groups_rows(case, flag_seed, parallel):
    types, rows, where = case
    keys = ", ".join(f"g{i}" for i in range(len(types)))
    select = (
        f"select {keys}, sum(m) s, count(*) c, avg(m) a, max(m) hi from t"
    )
    clause = "" if where is None else f" where {where}"
    sql = f"{select}{clause} group by {keys}"
    system = register(types, rows, parallel, build=True)

    # The synopsis answer of the query without its WHERE: its groups may
    # have no rows that pass it.
    answer = system.answer(f"{select} group by {keys}", guard=False)
    query, present = parse_query(sql).bind()
    assert present is None
    result = answer.result
    result_keys = system._result_keys(result, query.group_by)
    failing = np.random.default_rng(flag_seed).random(result.num_rows) < 0.5
    flagged = {result_keys[i]: "drawn" for i in np.flatnonzero(failing)}
    repaired = system._repair_answer(
        query, system._serving_view("t", None), answer,
        GuardPolicy(max_repair_fraction=1.0), result_keys, failing, flagged,
        [],
    )

    # The oracle: exact() over the flagged groups' surviving base rows.
    survivors = [
        row
        for row in rows
        if WHERES[where](row[-1])
        and any(same_key(row[:-1], key) for key in flagged)
    ]
    oracle = register(types, survivors, parallel, build=False).exact(sql)
    merged = repaired.result
    tags = merged.column("provenance")
    fixed = merged.filter(tags == PROVENANCE_REPAIRED)
    assert fixed.num_rows == oracle.num_rows
    for column in oracle.schema:
        got, want = fixed.column(column.name), oracle.column(column.name)
        if column.ctype is ColumnType.STR:
            assert got.dtype.kind == want.dtype.kind
            assert got.tolist() == want.tolist()
        else:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    for alias in ("s", "c", "a"):
        assert not fixed.column(f"{alias}_error").any()

    # Unflagged rows are the synopsis answer's, and the merge is in GROUP BY
    # key order.
    kept = merged.filter(tags != PROVENANCE_REPAIRED)
    unflagged = result.filter(~failing)
    for name in result.schema.names:
        assert np.array_equal(
            kept.column(name),
            unflagged.column(name),
            equal_nan=unflagged.column(name).dtype.kind == "f",
        )
    assert np.array_equal(
        merged.sort_order(query.group_by), np.arange(merged.num_rows)
    )

    oracle_keys = system._result_keys(oracle, query.group_by)
    assert list(repaired.guard.dropped) == [
        key
        for key in result_keys
        if key in flagged
        and not any(same_key(key, found) for found in oracle_keys)
    ]
    assert list(repaired.guard.provenance.values()) == tags.tolist()
