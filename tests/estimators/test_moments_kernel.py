"""The moments kernel reduces only the qualifying rows, byte for byte.

:meth:`SampleMoments.build` gathers the rows the WHERE keeps and runs its
bincounts over them alone.  The formulation it replaced ran them over every
sample row with the non-qualifying ones masked to zero; it is kept as the
oracle in ``moments_reference.py``.  ``np.bincount`` adds in row order and
a masked row only ever added a zero, so every per-cell array must agree to
the byte: support, each input's scaled sum, variance and Hoeffding terms,
and every MIN/MAX state.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Column, ColumnType, Schema, Table
from repro.engine.sql import parse_query
from repro.estimators.moments import SampleMoments
from repro.sampling.groups import finest_group_ids
from repro.sampling.stratified import StratifiedSample
from tests.estimators.moments_reference import masked_build

GROUPING = ["g1", "g2"]
SCHEMA = Schema(
    [
        Column("id", ColumnType.INT),
        Column("g1", ColumnType.INT, "grouping"),
        Column("g2", ColumnType.INT, "grouping"),
        Column("h", ColumnType.INT),
        Column("x", ColumnType.FLOAT, "aggregate"),
        Column("y", ColumnType.FLOAT, "aggregate"),
    ]
)
VALUES = [0.0, -0.0, 1.5, -2.0, 7.0, 1e300, -1e-300, float("nan")]
WHERES = [
    None,
    "x > 1",
    "id < 0",  # no row
    "id >= 0",  # every row
    "g1 = 1",
    "h <= 1 AND y > -1",
]
AGGREGATES = [
    "SUM(x)",
    "AVG(y)",
    "COUNT(*)",
    "MIN(x)",
    "MAX(y)",
    "SUM(x + y)",
    "AVG(x)",
]
GROUP_BYS = [(), ("g1",), ("g2", "g1"), ("h",), ("h", "g1")]


def _same_bytes(got, expected):
    if expected is None:
        assert got is None
        return
    got = np.asarray(got)
    assert got.shape == expected.shape
    if len(expected):  # np.bincount over no rows gives ints, weighted or not
        assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    table = Table.from_columns(
        SCHEMA,
        id=np.arange(n),
        g1=rng.integers(0, 3, n),
        g2=rng.integers(0, 2, n),
        h=rng.integers(0, 3, n),
        x=rng.choice(VALUES, n),
        y=rng.choice(VALUES, n),
    )
    ids, keys = finest_group_ids(table, GROUPING)
    populations = np.bincount(ids, minlength=len(keys))
    # zero, one (a single-row stratum), some or all of each group's rows
    allocation = {
        key: int(rng.integers(0, population + 1))
        for key, population in zip(keys, populations)
    }
    sample = StratifiedSample.build(table, GROUPING, allocation, rng=rng)
    if draw(st.booleans()) and sample.sizes.any():
        # a corrupt population: its variance terms are NaN, sampled or not
        damaged = sample.populations.copy()
        damaged[int(np.flatnonzero(sample.sizes)[0])] = 0
        sample = StratifiedSample.from_arrays(
            table, GROUPING, sample.keys, damaged, sample.sizes,
            sample.row_indices,
        )
    where = draw(st.sampled_from(WHERES))
    aggregates = draw(
        st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=4, unique=True)
    )
    group_by = draw(st.sampled_from(GROUP_BYS))
    sql = "SELECT " + ", ".join(
        list(group_by) + [f"{a} AS a{i}" for i, a in enumerate(aggregates)]
    ) + " FROM t"
    if where is not None:
        sql += f" WHERE {where}"
    if group_by:
        sql += " GROUP BY " + ", ".join(group_by)
    query, _ = parse_query(sql).bind()
    base = table if draw(st.booleans()) else None
    return sample, query, base


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_build_matches_the_masked_all_rows_formulation(case):
    sample, query, base = case
    aggregates = query.aggregates()
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 squared
        support, sums, extremes, cell_groups, key_arrays = masked_build(
            sample, query.where, aggregates, query.group_by, base
        )
        moments = SampleMoments.build(
            sample, query.where, aggregates, query.group_by, base
        )
        for key in sums:  # the all-ones column's is worked out on first read
            moments.sums[key].var_contrib
    _same_bytes(moments.support, support)
    _same_bytes(moments.cell_groups, cell_groups)
    assert len(moments.key_arrays) == len(key_arrays)
    for got, expected in zip(moments.key_arrays, key_arrays):
        _same_bytes(got, expected)
    assert list(moments.sums) == list(sums)
    for key, (scaled, var_contrib, range_terms) in sums.items():
        _same_bytes(moments.sums[key].scaled, scaled)
        _same_bytes(moments.sums[key].var_contrib, var_contrib)
        _same_bytes(moments.sums[key].range_terms, range_terms)
    assert list(moments.extremes) == list(extremes)
    for key, state in extremes.items():
        got = moments.extremes[key]
        assert got.func == state.func
        for field in ("count", "total", "total_sq", "low", "high"):
            _same_bytes(getattr(got, field), getattr(state, field))
