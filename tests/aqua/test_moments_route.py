"""The moments route: servable answers never run the plan, and match it.

A SUM/COUNT/AVG query the sample's per-stratum moments answer on their
own is served from those moments alone.  Two checks hold it there:

* a tripwire: the catalog's sample relation -- what the rewritten plan
  scans -- is read zero times by every servable answer, guarded or not,
  cached or not, while a HAVING query (plan route) still reads it;
* an oracle: the retained plan route -- ``execute_plan`` of the rewrite,
  with ``estimate()`` and ``chebyshev_halfwidth`` for the bounds --
  computes the same table: schema, keys and row order exactly, values and
  half-widths to summation order (``rtol=1e-9``).
"""

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.engine.groupby import key_tuples
from repro.engine.sql import parse_query
from repro.estimators.errors import chebyshev_halfwidth
from repro.estimators.point import estimate
from repro.plan import execute_plan, lower_rewritten, optimize
from repro.rewrite.nested_integrated import NestedIntegrated
from repro.serve.deadline import ManualClock
from repro.testing.faults import ServiceFaultInjector

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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


def _system(seed=5, budget=900, **kwargs):
    system = AquaSystem(
        space_budget=budget, rng=np.random.default_rng(seed), **kwargs
    )
    system.register_table("t", _table(seed=seed), grouping_columns=GROUPING)
    return system


QG0 = "SELECT SUM(v) AS s, COUNT(*) AS c FROM t WHERE id BETWEEN 200 AND 1400"
QG2 = (
    "SELECT g, h, SUM(v) AS a, AVG(w) AS b FROM t WHERE id >= 100 "
    "GROUP BY g, h"
)
QG3 = "SELECT g, h, k, SUM(v) AS a FROM t WHERE id >= 100 GROUP BY g, h, k"


class TestSampleRelationTripwire:
    @pytest.mark.parametrize("sql", [QG0, QG2, QG3], ids=["qg0", "qg2", "qg3"])
    @pytest.mark.parametrize("guard", [True, False])
    @pytest.mark.parametrize("cache", [True, False])
    def test_servable_answers_never_read_the_sample_relation(
        self, sql, guard, cache
    ):
        system = _system(cache=cache)
        with ServiceFaultInjector(system) as faults:
            slow = faults.slow_scan("t", 0.0, ManualClock())
            system.answer(sql, guard=guard)
            system.answer(sql, guard=guard)  # a cache hit when cache is on
            # a coarser probe: the roll-up tier when cache is on
            system.answer(
                "SELECT g, SUM(v) AS a FROM t WHERE id >= 100 GROUP BY g",
                guard=guard,
            )
            assert slow.reads == 0

    def test_a_having_query_still_scans_the_sample_relation(self):
        system = _system()
        with ServiceFaultInjector(system) as faults:
            slow = faults.slow_scan("t", 0.0, ManualClock())
            system.answer("SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING s > 0")
            assert slow.reads > 0


def _plan_route(system, query):
    """The reference: the rewritten plan's table with estimate() bounds."""
    synopsis = system.synopsis("t")
    plan = NestedIntegrated().plan(query, synopsis.installed)
    result = execute_plan(
        optimize(lower_rewritten(plan, system.catalog)), system.catalog
    )
    alias_of = {item.expr.name: item.alias for item in query.projections()}
    key_columns = [alias_of[column] for column in query.group_by]
    keys = (
        key_tuples([result.column(name) for name in key_columns])
        if key_columns
        else [()] * result.num_rows
    )
    for aggregate in query.aggregates():
        estimates = estimate(
            synopsis.sample,
            aggregate.func,
            None if aggregate.func == "count" else aggregate.expr,
            predicate=query.where,
            group_by=list(query.group_by),
        )
        halfwidths = np.full(result.num_rows, np.nan)
        for i, key in enumerate(keys):
            found = estimates.get(key)
            if found is not None and found.variance >= 0:
                halfwidths[i] = chebyshev_halfwidth(found.std_error, 0.9)
        result = result.with_column(
            Column(f"{aggregate.alias}_error", ColumnType.FLOAT), halfwidths
        )
    return result


# (select-list text, output alias, whether ORDER BY on it is tie-free)
_AGGREGATES = [
    ("SUM(v) AS s", "s", True),
    ("COUNT(*) AS n", "n", False),  # equal counts tie; routes may break differently
    ("AVG(v) AS m", "m", True),
    ("SUM(w) AS sw", "sw", True),
]
_WHERES = [
    None,
    "v > 60",
    "h = 'x'",
    "k >= 2",
    "v > 30 AND g != 'a'",
    "g = 'zzz'",
]


@st.composite
def servable_queries(draw):
    group_by = draw(
        st.lists(st.sampled_from(GROUPING), max_size=3, unique=True)
    )
    aliased = {
        column: draw(st.sampled_from([column, f"{column}_key"]))
        for column in group_by
    }
    aggregates = draw(
        st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=3,
                 unique=True)
    )
    items = [
        column if alias == column else f"{column} AS {alias}"
        for column, alias in aliased.items()
    ] + [text for text, __, __ in aggregates]
    items = draw(st.permutations(items))
    sql = f"SELECT {', '.join(items)} FROM t"
    where = draw(st.sampled_from(_WHERES))
    if where is not None:
        sql += f" WHERE {where}"
    if group_by:
        sql += f" GROUP BY {', '.join(group_by)}"
    orderable = list(aliased.values()) + [
        alias for __, alias, tie_free in aggregates if tie_free
    ]
    if orderable and draw(st.booleans()):
        order = draw(
            st.lists(st.sampled_from(orderable), min_size=1, max_size=2,
                     unique=True)
        )
        sql += f" ORDER BY {', '.join(order)}"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(min_value=0, max_value=8))}"
    return sql


@settings(deadline=None, max_examples=120)
@given(sql=servable_queries(), budget=st.sampled_from([300, 900]))
def test_moments_route_matches_the_plan_route(sql, budget):
    system = _system(budget=budget, guard_policy=False)
    query = parse_query(sql)
    assert system._servable(query, system.synopsis("t")), sql
    served = system.answer(sql).result
    reference = _plan_route(system, query)

    assert served.schema == reference.schema, sql
    assert served.num_rows == reference.num_rows, sql
    aggregate_aliases = {a.alias for a in query.aggregates()}
    for name in served.schema.names:
        base = name[: -len("_error")] if name.endswith("_error") else name
        if base in aggregate_aliases:
            np.testing.assert_allclose(
                served.column(name),
                reference.column(name),
                rtol=1e-9,
                equal_nan=True,
                err_msg=f"{sql}: {name}",
            )
        else:  # a group key: exact, in the same row order
            np.testing.assert_array_equal(
                served.column(name), reference.column(name), err_msg=sql
            )
