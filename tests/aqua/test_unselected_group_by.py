"""A GROUP BY column left out of the select list is answered, not refused.

``Query.bind`` appends each unselected GROUP BY column to the stage query
every stage runs -- moments or plan, guard, repair, exact fallback,
roll-up registration -- and the presentation drops it last.  So the
answer must be the widened query's answer (the same SQL with those
columns selected) with the added columns dropped, and have ``exact()``'s
row count.  The reference is a same-seed system answering the widened
SQL.
"""

import numpy as np
import pytest

from repro.aqua import AquaSystem, GuardPolicy
from repro.engine import Column, ColumnType, Schema, Table
from repro.testing.faults import FaultInjector

GROUPING = ["g", "h", "k"]


def _table(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("k", ColumnType.INT, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
            Column("w", ColumnType.FLOAT, "aggregate"),
            Column("id", ColumnType.INT, "key"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c"], size=n),
        h=rng.choice(["x", "y"], size=n),
        k=rng.choice([1, 2, 3], size=n),
        v=rng.gamma(2.0, 40.0, size=n),
        w=rng.normal(50.0, 12.0, size=n),
        id=np.arange(n),
    )


def _system(**kwargs):
    system = AquaSystem(
        space_budget=900, rng=np.random.default_rng(5), **kwargs
    )
    system.register_table("t", _table(), grouping_columns=GROUPING)
    return system


QG0 = "SUM(v) AS s, COUNT(*) AS c FROM t WHERE id BETWEEN 200 AND 1400"
# (the SQL, its unselected GROUP BY columns)
VARIANTS = {
    "qg1-one": (f"SELECT {QG0} GROUP BY g", ["g"]),
    "qg2-one": (
        "SELECT g, SUM(v) AS a, AVG(w) AS b FROM t WHERE id >= 100 "
        "GROUP BY g, h",
        ["h"],
    ),
    "qg2-two": (f"SELECT {QG0} GROUP BY h, g", ["h", "g"]),
    "qg3-one": (
        "SELECT g, k AS kk, SUM(v) AS a FROM t WHERE id >= 100 "
        "GROUP BY g, h, k ORDER BY a",
        ["h"],
    ),
    "qg3-two": (
        "SELECT SUM(v) AS a, k FROM t WHERE id >= 100 GROUP BY g, h, k",
        ["g", "h"],
    ),
    "plan-two": (
        "SELECT SUM(v) AS s FROM t GROUP BY g, h HAVING s > 0",
        ["g", "h"],
    ),
}


def _widened(sql, unselected):
    """``sql`` with its unselected GROUP BY columns appended to the select
    list."""
    head, tail = sql.split(" FROM ", 1)
    return f"{head}, {', '.join(unselected)} FROM {tail}"


def _assert_same_table(got, want):
    assert got.schema == want.schema
    for name in want.schema.names:
        np.testing.assert_array_equal(
            got.column(name), want.column(name), err_msg=name
        )


def _expected(sql, unselected, guard, **kwargs):
    reference = _system(cache=False, **kwargs).answer(
        _widened(sql, unselected), guard=guard
    )
    result = reference.result
    return result.project(
        [name for name in result.schema.names if name not in unselected]
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("guard", [True, False], ids=["guard", "unguarded"])
@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
def test_answer_is_the_widened_answer_without_the_added_columns(
    variant, guard, cache
):
    sql, unselected = VARIANTS[variant]
    system = _system(cache=cache)
    first = system.answer(sql, guard=guard)
    again = system.answer(sql, guard=guard)
    expected = _expected(sql, unselected, guard)
    _assert_same_table(first.result, expected)
    _assert_same_table(again.result, expected)
    assert again.cache_hit == cache
    assert first.result.num_rows == system.exact(sql).num_rows


@pytest.mark.parametrize("variant", ["qg2-two", "qg3-two", "plan-two"])
def test_hoeffding_bounds(variant):
    sql, unselected = VARIANTS[variant]
    served = _system(bound_method="hoeffding").answer(sql)
    expected = _expected(sql, unselected, True, bound_method="hoeffding")
    _assert_same_table(served.result, expected)
    error = "s_error" if "s_error" in served.result.schema else "a_error"
    assert np.isfinite(served.result.column(error)).all()


def test_a_coarser_unselected_query_rolls_up_from_a_finer_one():
    system = _system()
    system.answer("SELECT g, h, k, SUM(v) AS a FROM t GROUP BY g, h, k")
    sql = "SELECT SUM(v) AS a FROM t GROUP BY h, g"
    served = system.answer(sql)
    assert served.cache_tier == "rollup"
    expected = _expected(sql, ["h", "g"], True)
    for name in ("a", "a_error"):
        np.testing.assert_array_equal(
            served.result.column(name), expected.column(name)
        )
    assert set(served.result.column("provenance")) == {"rollup"}


def test_group_order_is_part_of_the_cache_key():
    # The appended key columns follow GROUP BY order, so the two stage
    # queries' select lists differ: no answer-cache entry is shared, and
    # the roll-up tier finalizes in the probe's own order.
    system = _system()
    system.answer("SELECT SUM(v) AS a FROM t GROUP BY g, h")
    swapped = "SELECT SUM(v) AS a FROM t GROUP BY h, g"
    served = system.answer(swapped)
    assert not served.cache_hit and served.cache_tier == "rollup"
    expected = _expected(swapped, ["h", "g"], True)
    for name in ("a", "a_error"):
        np.testing.assert_array_equal(
            served.result.column(name), expected.column(name)
        )


def test_repair_and_exact_fallback_key_on_the_appended_columns():
    sql, unselected = VARIANTS["qg3-two"]
    policy = GuardPolicy(min_group_support=55, max_repair_fraction=1.0)
    repaired = _system().answer(sql, guard=policy)
    assert repaired.provenance_counts.get("repaired", 0) > 0
    _assert_same_table(
        repaired.result, _expected(sql, unselected, policy)
    )

    system = _system()
    FaultInjector(system).corrupt_scale_factor("t")
    fallback = system.answer(sql)
    assert set(fallback.result.column("provenance")) == {"exact"}
    exact = system.exact(sql)
    np.testing.assert_array_equal(
        fallback.result.column("a"), exact.column("a")
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_explain_route_matches_answer(variant):
    # One route: every variant, HAVING too, answers from the moments, and
    # explain() has no route to name.
    sql, __ = VARIANTS[variant]
    system = _system(telemetry=True)
    assert "-- route:" not in system.explain(sql)
    stages = system.trace_answer(sql).trace.stage_seconds()
    assert "moments" in stages and "execute" not in stages
