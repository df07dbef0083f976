"""One route: every answer finalizes from the sample's moments, and
matches the plan the rewrites would run.

Whatever the query's shape -- SUM/COUNT/AVG, MIN/MAX, HAVING, a GROUP BY
outside the stratification columns, Chebyshev or Hoeffding bounds -- it
is answered from the sample's per-cell moments alone.  Three checks hold
it there:

* a tripwire: the catalog's sample relation -- what the rewritten plan
  scans -- is read zero times by every answer, guarded or not, cached or
  not;
* an oracle: the retained plan route -- ``execute_plan`` of the rewrite,
  with ``estimate()`` and ``chebyshev_halfwidth`` for the bounds, and
  ``hoeffding_halfwidth_stratified_sum`` over base-table ranges for
  Hoeffding ones -- computes the same table: schema, keys and row order
  exactly, values and half-widths to summation order (``rtol=1e-9``);
* a typed-error lock: the queries the rewrites refuse raise the same
  :class:`~repro.rewrite.base.RewriteError` from ``answer()``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.engine.groupby import key_tuples
from repro.engine.sql import parse_query
from repro.errors import AquaError
from repro.estimators.errors import (
    chebyshev_halfwidth,
    hoeffding_halfwidth_stratified_sum,
)
from repro.estimators.point import estimate
from repro.plan import execute_plan, lower_rewritten, optimize
from repro.rewrite.base import RewriteError
from repro.rewrite.nested_integrated import NestedIntegrated
from repro.serve.deadline import ManualClock
from repro.testing.faults import SlowScanTable

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
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
            Column("z", ColumnType.STR, "aggregate"),  # not stratified on
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
        z=rng.choice(["p", "q", "r", "s"], size=n),
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


# Every shape answer() serves: (SQL, system knobs).
SHAPES = {
    "qg0": (QG0, {}),
    "qg2": (QG2, {}),
    "qg3": (QG3, {}),
    "having": ("SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING s > 0", {}),
    "minmax": (
        "SELECT g, MIN(v) AS lo, MAX(w) AS hi, AVG(v) AS m FROM t "
        "WHERE id >= 100 GROUP BY g",
        {},
    ),
    "unstratified": (
        "SELECT z, g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY z, g", {}
    ),
    "empty_minmax": (
        "SELECT MIN(v) AS lo, MAX(v) AS hi FROM t WHERE g = 'zzz'", {}
    ),
    "hoeffding": (QG2, {"bound_method": "hoeffding"}),
}


@contextmanager
def _sample_relation_reads(system):
    """Count the column reads of the catalog's sample relation."""
    name = system.synopsis("t").installed.sample_name
    original = system.catalog.get(name)
    counted = SlowScanTable(original, ManualClock())
    system.catalog.register(name, counted, replace=True)
    try:
        yield counted
    finally:
        system.catalog.register(name, original, replace=True)


class TestSampleRelationTripwire:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("guard", [True, False])
    @pytest.mark.parametrize("cache", [True, False])
    def test_servable_answers_never_read_the_sample_relation(
        self, shape, guard, cache
    ):
        sql, knobs = SHAPES[shape]
        system = _system(cache=cache, **knobs)
        with _sample_relation_reads(system) as relation:
            system.answer(sql, guard=guard)
            system.answer(sql, guard=guard)  # a cache hit when cache is on
            # a coarser probe: the roll-up tier when cache is on
            system.answer(
                "SELECT g, SUM(v) AS a FROM t WHERE id >= 100 GROUP BY g",
                guard=guard,
            )
            assert relation.reads == 0

    def test_having_filters_from_the_moments_alone(self):
        system = _system()
        with _sample_relation_reads(system) as relation:
            full = system.answer(
                "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY g"
            ).result
            sums = dict(zip(full.column("g"), full.column("s")))
            threshold = float(np.median(list(sums.values())))
            kept = system.answer(
                f"SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING s > {threshold} "
                "ORDER BY g"
            ).result
            assert relation.reads == 0
        expected = sorted(key for key, total in sums.items() if total > threshold)
        assert 0 < len(expected) < len(sums)
        assert list(kept.column("g")) == expected
        np.testing.assert_array_equal(
            kept.column("s"), [sums[key] for key in expected]
        )


# Queries the rewrites refuse: each raises the rewrites' typed error from
# answer(), guarded or not.
REFUSED = {
    "nested_from": (
        "SELECT SUM(v) AS s FROM (SELECT v FROM t) x",
        "query is over Query(select=(Projection(expr=Col(v), alias='v'),), "
        "from_item='t', where=None, group_by=(), having=None, order_by=(), "
        "limit=None), synopsis covers 't'",
    ),
    "no_aggregate": (
        "SELECT g FROM t GROUP BY g",
        "only aggregate queries can be answered approximately",
    ),
    "var": (
        "SELECT g, VAR(v) AS s FROM t GROUP BY g",
        "aggregate 'var' has no rewrite rule",
    ),
    "internal_alias": (
        "SELECT g, MIN(v) AS __lo FROM t GROUP BY g",
        "output alias '__lo' collides with internal names",
    ),
}


class TestTypedErrors:
    @pytest.mark.parametrize("shape", sorted(REFUSED))
    @pytest.mark.parametrize("guard", [True, False])
    def test_refused_queries_raise_one_typed_error(self, shape, guard):
        sql, message = REFUSED[shape]
        system = _system()
        with pytest.raises(AquaError) as excinfo:
            system.answer(sql, guard=guard)
        assert type(excinfo.value) is RewriteError
        assert str(excinfo.value) == message


def _hoeffding_reference(system, aggregate, group_by, keys):
    """Per-key Hoeffding half-widths: every sampled stratum of the group,
    its value range over the base table widened to contain zero."""
    base = system._state("t").table
    if aggregate.func == "count":
        values = np.ones(base.num_rows)
    else:
        values = np.asarray(aggregate.expr.evaluate(base), dtype=np.float64)
    per_group = {}
    for key, stratum in system.synopsis("t").sample.strata.items():
        if stratum.sample_size == 0:
            continue
        rows = np.ones(base.num_rows, dtype=bool)
        for column, value in zip(GROUPING, key):
            rows &= base.column(column) == value
        low, high = values[rows].min(), values[rows].max()
        answer = tuple(key[GROUPING.index(column)] for column in group_by)
        ranges, populations, sizes = per_group.setdefault(answer, ([], [], []))
        ranges.append(float(max(high, 0.0) - min(low, 0.0)))
        populations.append(float(stratum.population))
        sizes.append(int(stratum.sample_size))
    return [
        hoeffding_halfwidth_stratified_sum(*per_group[key], 0.9)
        for key in keys
    ]


def _plan_route(system, query, hoeffding=False):
    """The reference: the rewritten plan's table with estimate() bounds,
    or Hoeffding ones where the system's bound family gives them."""
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
    stratified = set(query.group_by) <= set(GROUPING)
    for aggregate in query.aggregates():
        if aggregate.func not in ("sum", "count", "avg"):
            continue
        if hoeffding and stratified and aggregate.func != "avg":
            halfwidths = _hoeffding_reference(
                system, aggregate, query.group_by, keys
            )
        else:
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
    ("MIN(v) AS lo", "lo", True),
    ("MAX(w) AS hi", "hi", True),
]
_WHERES = [
    None,
    "v > 60",
    "h = 'x'",
    "k >= 2",
    "v > 30 AND g != 'a'",
    "g = 'zzz'",
]
# HAVING thresholds far from every estimate's rounding
_THRESHOLDS = ["-1e9", "0", "75", "2500"]


@st.composite
def answerable_queries(draw):
    group_by = draw(
        st.lists(st.sampled_from(GROUPING + ["z"]), max_size=3, unique=True)
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
    if draw(st.booleans()):
        alias = draw(st.sampled_from([alias for __, alias, __ in aggregates]))
        sql += f" HAVING {alias} > {draw(st.sampled_from(_THRESHOLDS))}"
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


@settings(deadline=None, max_examples=150)
@given(
    sql=answerable_queries(),
    budget=st.sampled_from([300, 900]),
    hoeffding=st.booleans(),
)
@example(
    sql="SELECT MIN(v) AS lo, MAX(w) AS hi, SUM(v) AS s FROM t "
    "WHERE g = 'zzz'",
    budget=300,
    hoeffding=False,
)
@example(
    sql="SELECT MIN(v) AS lo, COUNT(*) AS n FROM t WHERE g = 'zzz'",
    budget=900,
    hoeffding=True,
)
def test_moments_route_matches_the_plan_route(sql, budget, hoeffding):
    system = _system(
        budget=budget,
        guard_policy=False,
        bound_method="hoeffding" if hoeffding else "chebyshev",
    )
    query = parse_query(sql)
    served = system.answer(sql).result
    reference = _plan_route(system, query, hoeffding)

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
