"""Driver-level tests for ``AquaSystem.sql_stream`` (ISSUE 8).

The property suite (``tests/engine/test_stream_properties.py``) pins the
math; this module pins the driver contract: validation errors, emission
shape, early stopping, caching semantics (including version
invalidation), support counts, and the ``stream_*`` metrics.
"""

import numpy as np
import pytest

from repro.aqua import AquaSystem, StreamingAnswer
from repro.errors import StreamError

from repro.engine import Column, ColumnType, Schema, Table
from repro.estimators.errors import hoeffding_halfwidth_sum

SQL = "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g ORDER BY g"


def _table(n=2000, seed=11):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table(
        schema,
        {
            "g": rng.choice(["a", "b", "c", "d"], size=n),
            "v": rng.normal(100.0, 15.0, size=n),
        },
    )


def _system(telemetry=False, **kwargs):
    system = AquaSystem(
        space_budget=200,
        rng=np.random.default_rng(7),
        telemetry=telemetry,
        **kwargs,
    )
    system.register_table("t", _table())
    return system


class TestValidation:
    def test_nested_from_is_not_streamable(self):
        system = _system()
        with pytest.raises(StreamError, match="nested FROM"):
            next(
                iter(
                    system.sql_stream(
                        "SELECT g, SUM(s) AS t FROM ("
                        "SELECT g, SUM(v) AS s FROM t GROUP BY g"
                        ") GROUP BY g"
                    )
                )
            )

    def test_no_aggregates_is_not_streamable(self):
        system = _system()
        with pytest.raises(StreamError, match="at least one aggregate"):
            next(iter(system.sql_stream("SELECT g, v FROM t WHERE v > 0")))

    def test_bad_chunk_rows(self):
        system = _system()
        with pytest.raises(StreamError, match="chunk_rows"):
            next(iter(system.sql_stream(SQL, chunk_rows=0)))

    def test_bad_until_rel_error(self):
        system = _system()
        with pytest.raises(StreamError, match="until_rel_error"):
            next(iter(system.sql_stream(SQL, until_rel_error=0.0)))


class TestEmissionContract:
    def test_progressively_tighter_answers(self):
        system = _system()
        answers = list(system.sql_stream(SQL, chunk_rows=400))
        assert len(answers) >= 3
        fractions = [answer.fraction for answer in answers]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        rels = [answer.max_rel_halfwidth for answer in answers]
        # Halfwidths shrink chunk over chunk on this well-behaved table.
        assert all(b <= a for a, b in zip(rels, rels[1:]))
        assert rels[-1] == 0.0
        final = answers[-1]
        assert final.final and final.provenance == "exact"
        names = [
            name
            for name in final.result.schema.names
            if not name.endswith("_error")
        ]
        assert final.result.project(names) == system.exact(SQL)

    def test_error_columns_follow_select_order(self):
        system = _system()
        first = next(iter(system.sql_stream(SQL, chunk_rows=500)))
        assert isinstance(first, StreamingAnswer)
        assert list(first.result.schema.names) == [
            "g", "s", "a", "s_error", "a_error",
        ]

    def test_support_counts_qualifying_rows(self):
        system = _system()
        first = next(
            iter(
                system.sql_stream(
                    "SELECT g, SUM(v) AS s FROM t WHERE v > 100 GROUP BY g",
                    chunk_rows=500,
                )
            )
        )
        assert first.support
        assert sum(first.support.values()) <= first.rows_seen
        assert all(n >= 0 for n in first.support.values())

    def test_prefix_without_qualifying_rows(self):
        """A prefix no row of which passes WHERE has no groups yet: an
        empty estimate that is not converged, not a crash."""
        system = _system()
        sql = (
            "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t "
            "WHERE v > 1000 GROUP BY g"
        )
        answers = list(
            system.sql_stream(sql, chunk_rows=500, until_rel_error=0.5)
        )
        assert len(answers) == 4
        assert all(answer.result.num_rows == 0 for answer in answers)
        assert not any(answer.converged for answer in answers[:-1])
        assert answers[-1].final and answers[-1].support == {}

    def test_global_aggregate_streams(self):
        system = _system()
        answers = list(
            system.sql_stream("SELECT SUM(v) AS s FROM t", chunk_rows=600)
        )
        assert answers[-1].final
        assert answers[-1].result.num_rows == 1


class TestSupport:
    """Support is the qualifying rows seen per group, final emission too."""

    @pytest.mark.parametrize(
        "aggregate", ["SUM(v) AS s", "AVG(v) AS a", "COUNT(*) AS c"]
    )
    def test_final_support_is_whole_relation(self, aggregate):
        system = _system()
        sql = f"SELECT g, {aggregate} FROM t WHERE v > 100 GROUP BY g"
        answers = list(
            system.sql_stream(
                sql, chunk_rows=500, rng=np.random.default_rng(3)
            )
        )
        table = _table()
        keys, counts = np.unique(
            table.column("g")[table.column("v") > 100], return_counts=True
        )
        expected = {(key,): int(n) for key, n in zip(keys, counts)}
        assert answers[-1].final
        assert answers[-1].support == expected
        seen = {}
        for answer in answers:
            assert set(seen) <= set(answer.support)
            for key, n in answer.support.items():
                assert n >= seen.get(key, 0)
                seen[key] = n
        replay = list(system.sql_stream(sql, chunk_rows=500))
        assert len(replay) == 1 and replay[0].cache_hit
        assert replay[0].support == expected


class TestHoeffdingStream:
    """SUM/COUNT half-widths are Hoeffding's; AVG falls back to Chebyshev."""

    SQL = (
        "SELECT g, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a FROM t "
        "WHERE v > 90 GROUP BY g ORDER BY g"
    )

    def test_halfwidths_per_family(self):
        system = _system(bound_method="hoeffding")
        answers = list(
            system.sql_stream(
                self.SQL, chunk_rows=500, rng=np.random.default_rng(4)
            )
        )
        assert len(answers) == 4 and answers[-1].final
        table = _table()
        n = table.num_rows
        perm = np.random.default_rng(4).permutation(n)
        groups, values = table.column("g"), table.column("v")
        for answer in answers[:-1]:
            assert answer.bound_method == "hoeffding"
            m, confidence = answer.rows_seen, answer.confidence
            seen = perm[:m]
            result = answer.result
            for i, key in enumerate(result.column("g")):
                mine = values[groups == key]
                value_range = max(mine.max(), 0.0) - min(mine.min(), 0.0)
                assert result.column("s_error")[i] == hoeffding_halfwidth_sum(
                    value_range, m, n, confidence
                )
                assert result.column("c_error")[i] == hoeffding_halfwidth_sum(
                    1.0, m, n, confidence
                )
                # AVG: the delta-method Chebyshev bound on the prefix,
                # the relation as one stratum of n rows with m seen.
                hit = (groups[seen] == key) & (values[seen] > 90)
                y = np.where(hit, values[seen], 0.0)
                x = hit.astype(float)
                fpc = n * n * (1.0 - m / n) / m
                num, den = y.sum() * n / m, x.sum() * n / m
                ratio = num / den
                variance = (
                    fpc * np.var(y, ddof=1)
                    + ratio * ratio * fpc * np.var(x, ddof=1)
                ) / (den * den)
                assert result.column("a_error")[i] == pytest.approx(
                    np.sqrt(variance) / np.sqrt(1.0 - confidence), rel=1e-9
                )


class TestEarlyStop:
    def test_stops_when_target_met(self):
        system = _system()
        answers = list(
            system.sql_stream(SQL, chunk_rows=100, until_rel_error=0.25)
        )
        terminal = answers[-1]
        assert terminal.converged
        assert not terminal.final
        assert terminal.rows_seen < terminal.rows_total
        assert terminal.max_rel_halfwidth <= 0.25

    def test_unreachable_target_runs_to_completion(self):
        system = _system()
        answers = list(
            system.sql_stream(SQL, chunk_rows=500, until_rel_error=1e-12)
        )
        assert answers[-1].final


class TestCaching:
    def test_completed_stream_is_cached(self):
        system = _system()
        list(system.sql_stream(SQL, chunk_rows=500))
        replay = list(system.sql_stream(SQL, chunk_rows=500))
        assert len(replay) == 1
        assert replay[0].cache_hit
        assert replay[0].final

    def test_cached_final_satisfies_any_target(self):
        system = _system()
        list(system.sql_stream(SQL, chunk_rows=500))
        replay = next(
            iter(system.sql_stream(SQL, chunk_rows=500, until_rel_error=0.01))
        )
        assert replay.cache_hit
        assert replay.converged

    def test_early_stop_is_not_cached(self):
        system = _system()
        answers = list(
            system.sql_stream(SQL, chunk_rows=100, until_rel_error=0.5)
        )
        assert not answers[-1].final
        replay = next(iter(system.sql_stream(SQL, chunk_rows=100)))
        assert not replay.cache_hit

    def test_insert_invalidates_stream_cache(self):
        system = _system()
        list(system.sql_stream(SQL, chunk_rows=500))
        system.insert("t", ["a", 250.0])
        replay = next(iter(system.sql_stream(SQL, chunk_rows=500)))
        assert not replay.cache_hit
        # The fresh stream sees the inserted row.
        assert replay.rows_total == 2001


class TestMetrics:
    def test_stream_counters(self):
        system = _system(telemetry=True)
        answers = list(system.sql_stream(SQL, chunk_rows=400))
        metrics = system.metrics
        assert metrics.get("stream_queries_total").value(table="t") == 1
        assert metrics.get("stream_chunks_total").value(table="t") == len(
            answers
        )
        assert metrics.get("stream_deadline_total").value(table="t") == 0

    def test_early_stop_counter(self):
        system = _system(telemetry=True)
        list(system.sql_stream(SQL, chunk_rows=100, until_rel_error=0.25))
        assert (
            system.metrics.get("stream_early_stops_total").value(table="t")
            == 1
        )

    def test_time_to_first_answer_histogram(self):
        system = _system(telemetry=True)
        list(system.sql_stream(SQL, chunk_rows=400))
        snapshot = system.metrics.snapshot()
        assert "stream_time_to_first_answer_seconds" in snapshot
