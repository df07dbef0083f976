"""Property: roll-up answers are bit-identical to direct computation.

Two systems built from the same seed hold identical synopses.  System A
answers a fine GROUP BY (registering a reuse snapshot) and then a coarser
probe, served from the roll-up tier; system B answers the coarse probe
directly through the full pipeline.  Every aggregate value -- MIN/MAX
included -- *and* every Chebyshev or Hoeffding half-width must agree bit
for bit -- ``np.array_equal``, no tolerance -- because both paths share
:meth:`SampleMoments.finalize`'s arithmetic (see
``repro/estimators/moments.py``).  Only the provenance column may differ
(``synopsis`` vs ``rollup``), which is the tier's audit trail.

The probes include global aggregates (no GROUP BY) and a slice that
selects no stratum: a global aggregate answers its one row on both paths
even when no sample tuple qualifies.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.aqua import AquaSystem  # noqa: E402
from repro.engine import Column, ColumnType, Schema, Table  # noqa: E402

_AGG_POOL = [
    "SUM(v) AS s",
    "COUNT(*) AS c",
    "AVG(v) AS m",
    "SUM(w) AS sw",
    "AVG(w) AS mw",
    "MIN(v) AS lo",
    "MAX(w) AS hi",
]
_ALIAS = {"SUM(v) AS s": "s", "COUNT(*) AS c": "c", "AVG(v) AS m": "m",
          "SUM(w) AS sw": "sw", "AVG(w) AS mw": "mw", "MIN(v) AS lo": "lo",
          "MAX(w) AS hi": "hi"}
_SLICES = [None, "h = 'x'", "h != 'y'", "g IN ('a', 'b')", "g = 'zzz'"]


def _table(n, seed):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
            Column("w", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c"], size=n),
        h=rng.choice(["x", "y"], size=n),
        v=rng.gamma(2.0, 40.0, size=n),
        w=rng.normal(50.0, 12.0, size=n),
    )


def _system(seed, budget, bound="chebyshev"):
    system = AquaSystem(
        space_budget=budget,
        rng=np.random.default_rng(seed),
        cache=True,
        bound_method=bound,
    )
    system.register_table("t", _table(2000, seed), grouping_columns=["g", "h"])
    return system


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.sampled_from([150, 400, 900]),
    aggs=st.lists(
        st.sampled_from(_AGG_POOL), min_size=1, max_size=4, unique=True
    ),
    coarse_col=st.sampled_from(["g", "h", None]),
    where=st.sampled_from(_SLICES),
    guard=st.booleans(),
    bound=st.sampled_from(["chebyshev", "hoeffding"]),
)
@example(  # a global aggregate over a slice that selects no stratum
    seed=0,
    budget=400,
    aggs=["SUM(v) AS s", "COUNT(*) AS c", "AVG(v) AS m"],
    coarse_col=None,
    where="g = 'zzz'",
    guard=False,
    bound="chebyshev",
)
@example(  # the same under Hoeffding, with the extrema of no row
    seed=0,
    budget=400,
    aggs=["SUM(v) AS s", "COUNT(*) AS c", "MIN(v) AS lo"],
    coarse_col=None,
    where="g = 'zzz'",
    guard=False,
    bound="hoeffding",
)
def test_rollup_is_bit_identical_to_direct(
    seed, budget, aggs, coarse_col, where, guard, bound
):
    select = ", ".join(aggs)
    fine = f"SELECT g, h, {select} FROM t GROUP BY g, h"
    clause = f" WHERE {where}" if where else ""
    if coarse_col is None:
        coarse = f"SELECT {select} FROM t{clause}"
    else:
        coarse = (
            f"SELECT {coarse_col}, {select} FROM t{clause} "
            f"GROUP BY {coarse_col}"
        )

    warmed = _system(seed, budget, bound)
    warmed.answer(fine, guard=guard)
    rollup = warmed.answer(coarse, guard=guard)
    assert rollup.cache_tier == "rollup", coarse

    direct = _system(seed, budget, bound).answer(coarse, guard=guard)
    assert direct.cache_tier is None

    assert rollup.result.num_rows == direct.result.num_rows, coarse
    if coarse_col is not None:
        np.testing.assert_array_equal(
            rollup.result.column(coarse_col),
            direct.result.column(coarse_col),
        )
    for spec in aggs:
        alias = _ALIAS[spec]
        values_a = np.asarray(rollup.result.column(alias))
        values_b = np.asarray(direct.result.column(alias))
        assert np.array_equal(values_a, values_b, equal_nan=True), (
            coarse,
            alias,
        )
        if spec.startswith(("MIN", "MAX")):
            continue  # no half-width
        errors_a = np.asarray(rollup.result.column(f"{alias}_error"))
        errors_b = np.asarray(direct.result.column(f"{alias}_error"))
        assert np.array_equal(
            errors_a, errors_b, equal_nan=True
        ), (coarse, alias)


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    coarse_col=st.sampled_from(["g", "h"]),
)
def test_replayed_rollup_equals_the_first_serving(seed, coarse_col):
    """The cached roll-up answer replays exactly (exact tier)."""
    system = _system(seed, 400)
    system.answer("SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h")
    coarse = f"SELECT {coarse_col}, SUM(v) AS s FROM t GROUP BY {coarse_col}"
    first = system.answer(coarse)
    second = system.answer(coarse)
    assert first.cache_tier == "rollup"
    assert second.cache_tier == "exact"
    for name in first.result.schema.names:
        np.testing.assert_array_equal(
            first.result.column(name), second.result.column(name)
        )
