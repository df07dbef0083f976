"""One Hoeffding half-width function for the system and the calibration.

:func:`repro.estimators.errors.hoeffding_halfwidths` replaced two copies of
the same per-stratum loop (``AquaSystem._hoeffding_halfwidths`` and the
calibration runner's ``_stratum_ranges`` + ``_hoeffding_halfwidths``).
The loop they shared is kept here as the oracle: the function must agree
with it bit for bit, before and after inserts, and so must the
``_error`` columns of a Hoeffding-bounded plan-route answer.
"""

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine.aggregates import grouped_reduce
from repro.engine.sql import parse_query
from repro.estimators.errors import hoeffding_halfwidth_stratified_sum
from repro.estimators.point import hoeffding_halfwidths
from repro.sampling.groups import finest_group_ids, project_key
from repro.synthetic.tpcd import LineitemConfig, generate_lineitem

GROUPING = ["l_returnflag", "l_linestatus", "l_shipdate"]
WHERE = "WHERE l_quantity > 10"
QUERIES = {
    "qg0": f"SELECT {{agg}} AS x FROM lineitem {WHERE}",
    "qg2": (
        f"SELECT l_returnflag, l_linestatus, {{agg}} AS x FROM lineitem "
        f"{WHERE} GROUP BY l_returnflag, l_linestatus"
    ),
    "qg3": (
        f"SELECT l_returnflag, l_linestatus, l_shipdate, {{agg}} AS x "
        f"FROM lineitem {WHERE} "
        "GROUP BY l_returnflag, l_linestatus, l_shipdate"
    ),
}
AGGREGATES = {"sum": "SUM(l_extendedprice)", "count": "COUNT(*)"}


def _oracle(base, sample, grouping, aggregate, group_by, confidence):
    """The loop both callers ran before they shared one function."""
    if aggregate.func == "count":
        values = np.ones(base.num_rows)
    else:
        values = np.asarray(aggregate.expr.evaluate(base), dtype=np.float64)
    ids, keys = finest_group_ids(base, grouping)
    lows = np.minimum(grouped_reduce("min", values, ids, len(keys)), 0.0)
    highs = np.maximum(grouped_reduce("max", values, ids, len(keys)), 0.0)
    ranges = highs - lows
    per_answer = {}
    for index, key in enumerate(keys):
        answer = project_key(key, grouping, group_by)
        per_answer.setdefault(answer, []).append(index)
    out = {}
    for answer, indices in per_answer.items():
        r, n, m = [], [], []
        for index in indices:
            stratum = sample.strata.get(keys[index])
            if stratum is None or stratum.sample_size == 0:
                continue
            r.append(float(ranges[index]))
            n.append(float(stratum.population))
            m.append(int(stratum.sample_size))
        if m:
            out[answer] = hoeffding_halfwidth_stratified_sum(r, n, m, confidence)
    return out


def _as_arrays(expected, got):
    keys = sorted(expected)
    assert sorted(got) == keys
    return (
        np.array([expected[key] for key in keys]),
        np.array([got[key] for key in keys]),
    )


@pytest.fixture(scope="module")
def system():
    system = AquaSystem(
        space_budget=600,
        rng=np.random.default_rng(8),
        bound_method="hoeffding",
        guard_policy=False,
        cache=False,
    )
    system.register_table(
        "lineitem",
        generate_lineitem(LineitemConfig(table_size=6000, seed=8)),
        GROUPING,
    )
    return system


def _check(system, sql):
    query = parse_query(sql)
    (aggregate,) = query.aggregates()
    state = system._state("lineitem")
    sample = system.synopsis("lineitem").sample
    expected = _oracle(
        state.table, sample, GROUPING, aggregate, query.group_by, 0.9
    )
    got = hoeffding_halfwidths(
        state.table, sample, aggregate, query.group_by, 0.9
    )
    assert np.array_equal(*_as_arrays(expected, got))
    # The answer's error column reads the same kernel (for the
    # groups the WHERE leaves a qualifying sample tuple in).
    result = system.answer(sql).result
    errors = result.column("x_error")
    served = {
        tuple(result.column(c)[i] for c in query.group_by): errors[i]
        for i in range(result.num_rows)
    }
    assert np.array_equal(
        *_as_arrays({key: expected[key] for key in served}, served)
    )


@pytest.mark.parametrize("func", sorted(AGGREGATES))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_matches_the_loop_it_replaced(system, name, func):
    _check(system, QUERIES[name].format(agg=AGGREGATES[func]))


def test_matches_after_inserts():
    system = AquaSystem(
        space_budget=600,
        rng=np.random.default_rng(9),
        bound_method="hoeffding",
        guard_policy=False,
        cache=False,
    )
    table = generate_lineitem(LineitemConfig(table_size=6000, seed=9))
    system.register_table("lineitem", table, GROUPING)
    rows = list(table.iter_rows())[:300]
    for row in rows:  # new extremes widen some ranges
        values = list(row)
        values[table.schema.names.index("l_extendedprice")] *= 3.0
        system.insert("lineitem", values)
    for func in sorted(AGGREGATES):
        for name in sorted(QUERIES):
            sql = QUERIES[name].format(agg=AGGREGATES[func])
            system._flush_pending("lineitem")  # the base moves past the sample
            _check(system, sql)
    system.refresh_synopsis("lineitem")
    for name in sorted(QUERIES):
        _check(system, QUERIES[name].format(agg=AGGREGATES["sum"]))
