"""Refresh/insert edge cases: maintained vs. rebuild paths, zero-budget
strata, and groups born after the synopsis was built."""

import sys
import threading

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy, House
from repro.engine import Column, ColumnType, Schema, Table
from repro.maintenance.congress import CongressMaintainer
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem


def two_group_table(n_big=900, n_small=100, seed=3):
    rng = np.random.default_rng(seed)
    g = np.array(["big"] * n_big + ["small"] * n_small)
    v = rng.normal(50.0, 5.0, n_big + n_small)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(schema, g=g, v=v)


SQL = "select g, sum(v) s from rel group by g order by g"


@pytest.fixture
def system():
    system = AquaSystem(space_budget=100, rng=np.random.default_rng(2))
    system.register_table("rel", two_group_table())
    return system


class TestRefreshWithoutMaintainer:
    def test_refresh_flushes_and_rebuilds(self, system):
        for __ in range(50):
            system.insert("rel", ("small", 1000.0))
        assert system._state("rel").inserts_since_refresh == 50
        synopsis = system.refresh_synopsis("rel")
        assert system._state("rel").inserts_since_refresh == 0
        assert not system._state("rel").pending_rows
        assert synopsis.sample.total_population == 1050

    def test_new_group_visible_after_refresh(self, system):
        for __ in range(40):
            system.insert("rel", ("brand_new", 7.0))
        system.refresh_synopsis("rel")
        keys = set(system.synopsis("rel").sample.strata)
        assert ("brand_new",) in keys
        answer = system.answer(SQL)
        assert "brand_new" in set(answer.result.column("g"))

    def test_answer_before_refresh_misses_new_group_guarded(self, system):
        """A group living only in pending rows is invisible to the synopsis
        -- the guard cannot conjure it (missing-group detection is synopsis-
        side), but the answer it serves must still be NaN-free."""
        for __ in range(5):
            system.insert("rel", ("brand_new", 7.0))
        answer = system.answer(SQL)
        errors = np.asarray(answer.result.column("s_error"), dtype=float)
        assert not np.isnan(errors).any()


class TestRefreshWithMaintainer:
    def test_refresh_uses_maintainer_stream(self, system):
        system.enable_maintenance("rel")
        for __ in range(50):
            system.insert("rel", ("small", 1000.0))
        synopsis = system.refresh_synopsis("rel")
        assert system._state("rel").inserts_since_refresh == 0
        assert synopsis.sample.total_population == 1050
        assert synopsis.sample_size <= system.space_budget

    def test_maintainer_insert_counter(self, system):
        system.enable_maintenance("rel")
        assert system._state("rel").maintainer.inserts_seen == 1000
        for __ in range(7):
            system.insert("rel", ("small", 1.0))
        assert system._state("rel").maintainer.inserts_seen == 1007
        assert system.health("rel").maintainer_inserts == 1007

    def test_group_only_in_inserted_rows(self, system):
        system.enable_maintenance("rel")
        for __ in range(30):
            system.insert("rel", ("late", 3.0))
        system.refresh_synopsis("rel")
        strata = system.synopsis("rel").sample.strata
        assert ("late",) in strata
        assert strata[("late",)].population == 30
        answer = system.answer(SQL)
        assert "late" in set(answer.result.column("g"))

    def test_exact_and_guarded_agree_after_refresh(self, system):
        system.enable_maintenance("rel")
        for __ in range(50):
            system.insert("rel", ("small", 100.0))
        system.refresh_synopsis("rel")
        answer = system.answer(SQL)
        exact = {r["g"]: r["s"] for r in system.exact(SQL).to_dicts()}
        for row in answer.result.to_dicts():
            assert row["s"] == pytest.approx(exact[row["g"]], rel=0.5)


class TestMaintenanceAfterPendingInserts:
    def test_pending_rows_reach_the_maintainer(self):
        """Rows inserted before maintenance is switched on are part of what
        the maintainer counts, so the refreshed strata cover every row."""
        table = generate_lineitem(
            LineitemConfig(table_size=20_000, num_groups=50, seed=0)
        )
        system = AquaSystem(space_budget=1000, rng=np.random.default_rng(1))
        system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
        system.synopsis("lineitem")
        system.insert("lineitem", table.row(0))
        system.enable_maintenance("lineitem")
        system.refresh_synopsis("lineitem")
        answer = system.answer(
            "select l_returnflag, sum(l_quantity) s from lineitem "
            "group by l_returnflag"
        )
        assert set(answer.provenance_counts) == {"synopsis"}
        assert system.health("lineitem").issues == ()
        assert system.synopsis("lineitem").sample.total_population == 20_001


class TestRefreshRace:
    def test_an_insert_during_a_refresh_waits_for_the_install(self, system):
        """An insert racing a maintained refresh lands before its snapshot
        or after its install, never between them: the refreshed strata
        cover the rows recorded as covered, and the insert stays counted
        as one since the refresh."""
        system.enable_maintenance("rel")
        maintainer = system._state("rel").maintainer
        snapshot = maintainer.snapshot
        racer = threading.Thread(
            target=system.insert, args=("rel", ("small", 9.0))
        )

        def racing_snapshot():
            sample = snapshot()
            racer.start()
            racer.join(timeout=0.2)  # returns early unless the insert waits
            return sample

        maintainer.snapshot = racing_snapshot
        try:
            synopsis = system.refresh_synopsis("rel")
        finally:
            racer.join(timeout=10)
            del maintainer.snapshot
        assert not racer.is_alive()
        state = system._state("rel")
        assert state.inserts_since_refresh == 1
        assert synopsis.sample.total_population == state.rows_at_refresh == 1000
        assert system.health("rel").issues == ()
        assert system.refresh_synopsis("rel").sample.total_population == 1001

    def test_an_insert_during_a_rebuild_counts_since_the_refresh(self, system):
        """An insert between an unmaintained refresh's flush and its install
        is not in the rebuilt sample: the synopsis is recorded as covering
        the rows the build read, and the insert stays counted as one since
        the refresh."""
        build = system._build_samples
        racer = threading.Thread(
            target=system.insert, args=("rel", ("small", 9.0))
        )

        def racing_build(*args):
            built = build(*args)
            racer.start()
            racer.join(timeout=10)
            return built

        system._build_samples = racing_build
        try:
            synopsis = system.refresh_synopsis("rel")
        finally:
            racer.join(timeout=10)
            del system._build_samples
        state = system._state("rel")
        assert state.inserts_since_refresh == 1
        assert synopsis.sample.total_population == state.rows_at_refresh == 1000
        assert system.health("rel").issues == ()
        assert system.refresh_synopsis("rel").sample.total_population == 1001

    def test_an_insert_during_enable_maintenance_reaches_the_maintainer(
        self, system, monkeypatch
    ):
        """An insert racing enable_maintenance's load lands before the load
        or after the maintainer is attached, never between them: every
        refresh covers the rows recorded as covered, and the guard serves
        the synopsis."""
        load = CongressMaintainer.insert_table
        racer = threading.Thread(
            target=system.insert, args=("rel", ("small", 9.0))
        )

        def racing_load(maintainer, table):
            load(maintainer, table)
            racer.start()
            racer.join(timeout=0.2)  # returns early unless the insert waits

        monkeypatch.setattr(CongressMaintainer, "insert_table", racing_load)
        try:
            system.enable_maintenance("rel")
        finally:
            racer.join(timeout=10)
            monkeypatch.undo()
        assert not racer.is_alive()
        synopsis = system.refresh_synopsis("rel")
        assert system.health("rel").issues == ()
        assert (
            synopsis.sample.total_population
            == system._state("rel").rows_at_refresh
        )
        assert system.refresh_synopsis("rel").sample.total_population == 1001
        answer = system.answer(SQL)
        assert set(answer.provenance_counts) == {"synopsis"}

    def test_inserts_and_refreshes_from_many_threads_lose_no_row(self, system):
        system.enable_maintenance("rel")
        inserters = [
            threading.Thread(
                target=system.insert_many,
                args=("rel", [("small", float(i))] * 200),
            )
            for i in range(4)
        ]
        refresher = threading.Thread(
            target=lambda: [system.refresh_synopsis("rel") for __ in range(20)]
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in [*inserters, refresher]:
                thread.start()
            for thread in [*inserters, refresher]:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*inserters, refresher])
        synopsis = system.refresh_synopsis("rel")
        assert synopsis.sample.total_population == 1800
        assert system._state("rel").maintainer.inserts_seen == 1800
        assert system.health("rel").issues == ()


def twenty_group_table(rows_per_group=1000, seed=5):
    rng = np.random.default_rng(seed)
    g = np.repeat([f"g{i:02d}" for i in range(20)], rows_per_group)
    v = rng.normal(50.0, 5.0, g.size)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(schema, g=g, v=v)


COUNT_SQL = "select g, count(*) c from rel group by g"


class TestRecordReads:
    """Every base read of an answer is of the record the answer carries:
    an insert that lands after the answer took its record reaches neither
    its repair, nor its exact fallback, nor a stream's landing."""

    @pytest.fixture
    def twenty(self):
        system = AquaSystem(space_budget=400, rng=np.random.default_rng(6))
        system.register_table("rel", twenty_group_table())
        return system

    @staticmethod
    def _answer_racing_an_insert(system, policy):
        """Answer with an insert landing in the guard, before any base
        read; returns the record the answer started from, and the answer."""
        flag = system._flag_groups
        racer = threading.Thread(
            target=system.insert, args=("rel", ("g00", 1.0))
        )

        def racing_flag(*args):
            racer.start()
            racer.join(timeout=0.2)
            return flag(*args)

        before = system._state("rel")
        system._flag_groups = racing_flag
        try:
            answer = system.answer(COUNT_SQL, guard=policy)
        finally:
            racer.join(timeout=10)
            del system._flag_groups
        assert not racer.is_alive()
        assert system._state("rel").rows == before.rows + 1
        return before, answer

    def test_a_repair_reads_the_answer_s_version(self, twenty):
        before, answer = self._answer_racing_an_insert(
            twenty,
            GuardPolicy(min_group_support=10**6, max_repair_fraction=1.0),
        )
        assert set(answer.provenance_counts) == {"repaired"}
        assert answer.version == before.version
        assert sum(answer.result.column("c").tolist()) == before.rows == 20_000

    def test_a_full_fallback_reads_the_answer_s_version(self, twenty):
        before, answer = self._answer_racing_an_insert(
            twenty,
            GuardPolicy(min_group_support=10**6, max_repair_fraction=0.0),
        )
        assert set(answer.provenance_counts) == {"exact"}
        assert answer.version == before.version
        assert sum(answer.result.column("c").tolist()) == before.rows == 20_000

    def test_a_stream_lands_on_the_rows_it_scanned(self, system):
        stream = system.sql_stream(COUNT_SQL, chunk_rows=250)
        next(stream)
        next(stream)
        system.insert_many("rel", [("small", 9.0)] * 50)
        *__, final = stream
        assert final.final
        assert sum(final.result.column("c").tolist()) == final.rows_total
        assert final.rows_total == 1000


class TestZeroBudgetStrata:
    def test_house_starves_small_group_health_degraded(self):
        """House allocation with a tight budget can give a group zero
        tuples; health reports the coverage gap and the guard repairs the
        group instead of dropping it."""
        system = AquaSystem(
            space_budget=8,
            allocation_strategy=House(),
            rng=np.random.default_rng(4),
        )
        system.register_table("rel", two_group_table(n_big=990, n_small=10))
        strata = system.synopsis("rel").sample.strata
        if strata[("small",)].sample_size > 0:
            pytest.skip("allocation gave the small group tuples after all")
        assert system.health("rel").status == "degraded"
        answer = system.answer(SQL)
        assert "small" in set(answer.result.column("g"))
        errors = np.asarray(answer.result.column("s_error"), dtype=float)
        assert not np.isnan(errors).any()

    def test_compare_reports_staleness_honestly(self, system):
        for __ in range(25):
            system.insert("rel", ("small", 9.0))
        version = system.table_version("rel")
        report = system.compare(SQL)
        # Both sides read the answer's version, the 25 pending rows
        # included; the synopsis itself is still 25 inserts behind, and
        # says so.
        assert report.approximate.version == version
        assert system.table_version("rel") == version
        assert report.exact.column("s").tolist() == (
            system.exact(SQL).column("s").tolist()
        )
        assert report.stale_inserts == 25
        assert "stale" in report.describe()

    def test_compare_describe_handles_inf_speedup(self, system):
        report = system.compare(SQL)
        report.approximate.elapsed_seconds = 0.0
        assert "n/a" in report.describe()


class TestMaintainedUnsampledGroups:
    """A maintained refresh makes a stratum for every group it has seen, as
    ``build_synopsis`` does: a populated group that drew no sampled row is
    an empty stratum, so health counts it as uncovered and the guard's
    missing-group check can see it."""

    @pytest.fixture
    def system(self):
        rng = np.random.default_rng(3)
        schema = Schema(
            [
                Column("g", ColumnType.INT, "grouping"),
                Column("v", ColumnType.FLOAT, "aggregate"),
            ]
        )
        table = Table.from_columns(
            schema, g=rng.integers(0, 400, size=4000), v=rng.normal(size=4000)
        )
        system = AquaSystem(space_budget=100, rng=np.random.default_rng(3))
        system.register_table("rel", table)
        return system

    def test_health_counts_the_unsampled_groups(self, system):
        built = system.health("rel")
        assert (built.strata_total, built.strata_covered) == (400, 100)
        assert len(system.synopsis("rel").empty_strata) == 300
        system.enable_maintenance("rel")
        synopsis = system.refresh_synopsis("rel")
        health = system.health("rel")
        assert health.strata_total == 400
        assert health.strata_covered == synopsis.sample.frame.num_strata < 400
        assert len(synopsis.empty_strata) == 400 - health.strata_covered
        assert synopsis.sample.total_population == 4000

    def test_guard_repairs_the_unsampled_groups(self, system):
        system.enable_maintenance("rel")
        synopsis = system.refresh_synopsis("rel")
        assert system.health("rel").issues == ()
        assert len(synopsis.sample.frame.expected_groups(["g"])) == 400
        answer = system.answer(
            "select g, sum(v) s from rel group by g",
            guard=GuardPolicy(min_group_support=1, max_repair_fraction=1.0),
        )
        assert answer.result.num_rows == 400
        sampled = synopsis.sample.frame.num_strata
        assert answer.provenance_counts == {
            "synopsis": sampled, "repaired": 400 - sampled,
        }
