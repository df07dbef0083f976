"""Parallel machinery inside AquaSystem: construction, exact, guard reuse."""

import numpy as np
import pytest

from repro.aqua import AquaSystem, GuardPolicy, ParallelConfig
from repro.engine import Column, ColumnType, Schema, Table

SQL = "SELECT g, SUM(v) AS s, AVG(v) AS m FROM t GROUP BY g"


def _table(n=6000, seed=11):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table(
        schema,
        {
            "g": rng.choice(
                ["a", "b", "c", "d"], size=n, p=[0.7, 0.2, 0.08, 0.02]
            ),
            "h": rng.choice(["x", "y"], size=n),
            "v": rng.exponential(50.0, size=n),
        },
    )


def _pair(**parallel_kwargs):
    """Identically-seeded systems: one serial, one partition-parallel."""
    serial = AquaSystem(
        space_budget=400, rng=np.random.default_rng(5), parallel=False
    )
    parallel = AquaSystem(
        space_budget=400,
        rng=np.random.default_rng(5),
        parallel=ParallelConfig(
            max_workers=4, min_partition_rows=1, **parallel_kwargs
        ),
    )
    table = _table()
    serial.register_table("t", table)
    parallel.register_table("t", table)
    return serial, parallel


class TestParallelConstruction:
    def test_synopsis_bit_identical_to_serial(self):
        serial, parallel = _pair()
        left = serial.synopsis("t").sample
        right = parallel.synopsis("t").sample
        assert left.sample_sizes() == right.sample_sizes()
        assert left.scale_factors() == right.scale_factors()
        for key, stratum in left.strata.items():
            assert np.array_equal(
                stratum.row_indices, right.strata[key].row_indices
            ), f"stratum {key} drew different rows"

    def test_answers_identical_to_serial(self):
        serial, parallel = _pair()
        left = serial.answer(SQL).result
        right = parallel.answer(SQL).result
        for name in left.schema.names:
            np.testing.assert_array_equal(
                left.column(name), right.column(name)
            )


class TestParallelExact:
    def test_exact_matches_serial(self):
        serial, parallel = _pair()
        left = serial.exact(SQL)
        right = parallel.exact(SQL)
        assert list(left.column("g")) == list(right.column("g"))
        np.testing.assert_allclose(
            left.column("s"), right.column("s"), rtol=1e-12
        )
        np.testing.assert_allclose(
            left.column("m"), right.column("m"), rtol=1e-12
        )

    def test_hash_mode_exact_matches_serial(self):
        serial, parallel = _pair(partition_mode="hash")
        left = serial.exact(SQL)
        right = parallel.exact(SQL)
        np.testing.assert_allclose(
            left.column("s"), right.column("s"), rtol=1e-12
        )

    def test_exact_scans_run_partitioned(self):
        system = AquaSystem(
            space_budget=400,
            rng=np.random.default_rng(5),
            parallel=ParallelConfig(max_workers=4, min_partition_rows=1),
            telemetry=True,
        )
        system.register_table("t", _table())
        system.exact(SQL)
        text = system.metrics.to_prometheus()
        assert "engine_parallel_scans_total" in text


class TestGuardReusesExecutor:
    def test_exact_fallback_scan_is_partitioned(self):
        policy = GuardPolicy(
            min_group_support=10**9, max_repair_fraction=0.0
        )
        system = AquaSystem(
            space_budget=400,
            rng=np.random.default_rng(5),
            guard_policy=policy,
            parallel=ParallelConfig(max_workers=4, min_partition_rows=1),
            telemetry=True,
        )
        system.register_table("t", _table())
        # The counter is registered by the first partitioned plan scan; the
        # guard's exact fallback must add scans on top of any made so far.
        counter = system.metrics.get("engine_parallel_scans_total")
        before = 0 if counter is None else counter.value(backend="threads")
        answer = system.answer(SQL)
        assert answer.guard is not None and answer.guard.degraded
        after = system.metrics.get("engine_parallel_scans_total").value(
            backend="threads"
        )
        assert after > before
        assert 'engine_parallel_scans_total{backend="threads"}' in (
            system.metrics.to_prometheus()
        )

    def test_repair_scan_matches_serial_repair(self):
        policy = GuardPolicy(min_group_support=40, max_repair_fraction=1.0)
        results = []
        for parallel in (
            False,
            ParallelConfig(max_workers=3, min_partition_rows=1),
        ):
            system = AquaSystem(
                space_budget=400,
                rng=np.random.default_rng(5),
                guard_policy=policy,
                parallel=parallel,
            )
            system.register_table("t", _table())
            results.append(system.answer(SQL))
        left, right = results
        assert left.provenance_counts == right.provenance_counts
        for name in left.result.schema.names:
            np.testing.assert_array_equal(
                left.result.column(name), right.result.column(name)
            )


class TestConfiguration:
    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
        system = AquaSystem(space_budget=100)
        assert system.parallel_config.workers == 3
        assert system.parallel_config.min_partition_rows == 0

    def test_parallel_false_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
        system = AquaSystem(space_budget=100, parallel=False)
        assert system.executor is None
        assert system.parallel_config is None

    def test_set_parallel_runtime(self):
        system = AquaSystem(space_budget=100, parallel=False)
        system.set_parallel(ParallelConfig(max_workers=2))
        assert system.parallel_config.workers == 2
        system.set_parallel(False)
        assert system.executor is None

    def test_invalid_parallel_rejected(self):
        from repro.aqua import AquaError

        with pytest.raises(AquaError):
            AquaSystem(space_budget=100, parallel="yes")
