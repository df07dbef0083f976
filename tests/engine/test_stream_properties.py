"""Hypothesis property suite for the streaming layer (ISSUE 8 satellite).

Four invariants, over random tables / chunkings / seeds:

(a) the final streamed answer is **bit-identical** to the batch
    ``answer()``/``exact()`` result (the exact-landing contract);
(b) per-group support ``n`` is non-decreasing across chunks;
(c) normal / chebyshev / hoeffding half-widths are non-increasing in the
    rows seen for fixed per-row moments;
(d) any prefix of chunks merged equals ``partial_group_by`` over the
    concatenated prefix.

Bit-equality properties use small-integer values so every intermediate
float is exactly representable and merge order cannot introduce ULPs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqua import AquaSystem
from repro.engine import (
    Aggregate,
    ColumnType,
    Schema,
    Table,
    chunk_bounds,
    col,
    partial_group_by,
    stream_group_partials,
    stream_halfwidth,
)
from repro.estimators.point import expansion_variance

# -- strategies ---------------------------------------------------------------

#: Small-integer row values: exactly representable, sums/sums-of-squares
#: exactly representable, so chunk-merge order cannot change any bit.
row_values = st.integers(min_value=-50, max_value=50)

tables = st.builds(
    lambda gs, vs: Table(
        Schema.of(("g", ColumnType.STR), ("v", ColumnType.FLOAT)),
        {
            "g": np.array([f"g{i % 4}" for i in gs]),
            "v": np.array([float(v) for v in vs[: len(gs)]]),
        },
    ),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=60),
    st.lists(row_values, min_size=60, max_size=60),
)

chunk_sizes = st.integers(min_value=1, max_value=25)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

AGGREGATES = [
    Aggregate("sum", col("v"), "s"),
    Aggregate("count", col("v"), "c"),
    Aggregate("min", col("v"), "lo"),
    Aggregate("max", col("v"), "hi"),
]


def _states_equal(left, right) -> bool:
    if left.func != right.func:
        return False
    for field in ("count", "total", "total_sq", "low", "high"):
        a, b = getattr(left, field), getattr(right, field)
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if not np.array_equal(a, b):
            return False
    return True


class TestChunkBounds:
    @given(num_rows=st.integers(min_value=0, max_value=500), size=chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_partition_covers_every_row_once(self, num_rows, size):
        bounds = chunk_bounds(num_rows, size)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == max(num_rows, 0)
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        if num_rows > 0:
            assert all(stop > start for start, stop in bounds)


class TestPrefixMergeEqualsBatch:
    """(d): merged prefix partial == partial_group_by over the prefix."""

    @given(table=tables, size=chunk_sizes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_every_prefix_is_exact(self, table, size, seed):
        rng = np.random.default_rng(seed)
        perm = np.random.default_rng(seed).permutation(table.num_rows)
        for chunk in stream_group_partials(
            table, ["g"], AGGREGATES, size, rng=rng
        ):
            prefix = table.take(perm[: chunk.rows_seen])
            expected = partial_group_by(prefix, ["g"], AGGREGATES)
            assert chunk.partial.group_keys == expected.group_keys
            for alias in expected.states:
                assert _states_equal(
                    chunk.partial.states[alias], expected.states[alias]
                )

    @given(table=tables, size=chunk_sizes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_support_non_decreasing(self, table, size, seed):
        """(b): per-group n never shrinks as chunks accumulate."""
        seen = {}
        rng = np.random.default_rng(seed)
        last_rows = 0
        for chunk in stream_group_partials(
            table, ["g"], AGGREGATES, size, rng=rng
        ):
            assert chunk.rows_seen >= last_rows
            last_rows = chunk.rows_seen
            counts = chunk.partial.states["c"].count
            for i, key in enumerate(chunk.partial.group_keys):
                n = int(counts[i])
                assert n >= seen.get(key, 0)
                seen[key] = n


class TestHalfwidthMonotonicity:
    """(c): all three bound families tighten as rows accumulate."""

    @given(
        mean=st.floats(min_value=-100, max_value=100),
        spread=st.floats(min_value=0.0, max_value=100, allow_subnormal=False),
        rows_total=st.integers(min_value=10, max_value=100_000),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_se_families_non_increasing(
        self, mean, spread, rows_total, confidence
    ):
        """Fixed per-row moments: variance (hence SE bounds) shrinks in m.

        With per-row mean ``mean`` and per-row second moment
        ``q = mean^2 + spread``, the expansion variance has the closed form
        ``N^2 (1 - m/N) spread / (m - 1)`` -- exactly non-increasing in m.
        The monotonicity claim is asserted on that form (immune to the
        catastrophic cancellation of ``ss - s^2/m`` when spread ~ 0), and
        ``expansion_variance`` is pinned to it within a cancellation-sized
        tolerance.
        """
        n = rows_total
        q = mean * mean + spread  # E[y^2] >= E[y]^2 always
        widths = {"normal": [], "chebyshev": []}
        for m in range(2, n + 1, max(1, n // 23)):
            variance = n * n * (1.0 - m / n) * spread / (m - 1)
            # The stream's use of the kernel: one stratum of N = n rows,
            # m of them seen.
            computed = expansion_variance(
                n, m, np.array([m * mean]), np.array([m * q])
            )[0]
            # ss - s^2/m cancels to ~spread*m out of terms of size
            # ~m*mean^2; the surviving rounding noise scales with the
            # *cancelled* magnitude, not the result.
            cancellation = 1e-9 * (m * q + m * mean * mean)
            scale = n * n * (1.0 - m / n) / ((m - 1) * m)
            assert computed >= 0
            # The 1e-300 floor absorbs ulp noise when spread sits near the
            # bottom of the normal float range and every term underflows.
            assert math.isclose(
                computed,
                variance,
                rel_tol=1e-9,
                abs_tol=cancellation * scale + 1e-300,
            )
            for method in widths:
                widths[method].append(
                    stream_halfwidth(
                        method, math.sqrt(variance), confidence=confidence
                    )
                )
        for method, series in widths.items():
            for earlier, later in zip(series, series[1:]):
                assert later <= earlier * (1 + 1e-12), method

    @given(
        value_range=st.floats(min_value=0.0, max_value=1e6),
        rows_total=st.integers(min_value=10, max_value=100_000),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_hoeffding_non_increasing(
        self, value_range, rows_total, confidence
    ):
        previous = math.inf
        for m in range(1, rows_total + 1, max(1, rows_total // 23)):
            width = stream_halfwidth(
                "hoeffding",
                0.0,
                confidence=confidence,
                value_range=value_range,
                rows_seen=m,
                rows_total=rows_total,
            )
            assert width <= previous * (1 + 1e-12)
            previous = width

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown stream bound method"):
            stream_halfwidth("bayesian", 1.0)


class TestFinalAnswerBitIdentical:
    """(a): the terminal emission equals exact() bit for bit."""

    @given(table=tables, size=chunk_sizes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_final_equals_exact(self, table, size, seed):
        system = AquaSystem(
            space_budget=30, rng=np.random.default_rng(0), telemetry=False
        )
        system.register_table("t", table, grouping_columns=("g",))
        sql = (
            "SELECT g, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a "
            "FROM t GROUP BY g ORDER BY g"
        )
        answers = list(
            system.sql_stream(
                sql, chunk_rows=size, rng=np.random.default_rng(seed)
            )
        )
        assert answers, "a stream always emits at least one answer"
        final = answers[-1]
        assert final.final
        assert final.provenance == "exact"
        assert final.fraction == 1.0
        exact = system.exact(sql)
        names = [n for n in final.result.schema.names if not n.endswith("_error")]
        assert final.result.project(names) == exact
        # Zero-width intervals on the exact landing.
        for name in final.result.schema.names:
            if name.endswith("_error"):
                assert np.all(final.result.column(name) == 0.0)
        # Intermediate emissions cover strictly less data, in order.
        fractions = [answer.fraction for answer in answers]
        assert fractions == sorted(fractions)
        assert all(not answer.final for answer in answers[:-1])
