"""The guarded answering escalation ladder: synopsis -> repaired -> exact."""

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy
from repro.aqua import (
    PROVENANCE_COLUMN,
    PROVENANCE_EXACT,
    PROVENANCE_REPAIRED,
    PROVENANCE_SYNOPSIS,
)
from repro.engine import Column, ColumnType, Schema, Table, parse_query
from repro.engine.predicates import Predicate
from repro.errors import (
    AquaError,
    GuardViolationError,
    QueryTooDeepError,
    StaleSynopsisError,
)
from repro.testing import FaultInjector

SQL = "select a, b, sum(q) s from rel group by a, b order by a, b"


def make_table(n=5000, seed=7):
    rng = np.random.default_rng(seed)
    a = np.where(
        rng.random(n) < 0.8, "a1", np.where(rng.random(n) < 0.9, "a2", "a3")
    )
    b = np.where(rng.random(n) < 0.95, "b1", "b2")
    q = rng.normal(100.0, 10.0, n)
    schema = Schema(
        [
            Column("a", ColumnType.STR, "grouping"),
            Column("b", ColumnType.STR, "grouping"),
            Column("q", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(schema, a=a, b=b, q=q)


@pytest.fixture
def system():
    system = AquaSystem(space_budget=400, rng=np.random.default_rng(1))
    system.register_table("rel", make_table())
    return system


class TestHealthyAnswers:
    def test_provenance_all_synopsis(self, system):
        answer = system.answer(SQL)
        assert answer.guard is not None
        tags = answer.result.column(PROVENANCE_COLUMN)
        assert all(tag == PROVENANCE_SYNOPSIS for tag in tags)
        assert answer.provenance_counts == {
            PROVENANCE_SYNOPSIS: answer.result.num_rows
        }
        assert not answer.guard.degraded

    def test_guard_false_serves_legacy_answer(self, system):
        answer = system.answer(SQL, guard=False)
        assert answer.guard is None
        assert PROVENANCE_COLUMN not in answer.result.schema

    def test_system_level_guard_disable(self):
        system = AquaSystem(
            space_budget=400,
            rng=np.random.default_rng(1),
            guard_policy=False,
        )
        system.register_table("rel", make_table())
        assert system.guard_policy is None
        assert system.answer(SQL).guard is None
        # Per-call opt-in still works.
        assert system.answer(SQL, guard=GuardPolicy()).guard is not None

    def test_limit_does_not_trigger_missing_group_fallback(self, system):
        """LIMIT legitimately trims groups from the answer; the guard must
        not mistake the trimmed groups for missing ones and go exact."""
        answer = system.answer(
            "select a, b, sum(q) s from rel group by a, b order by a, b "
            "limit 2"
        )
        assert answer.result.num_rows == 2
        tags = set(answer.result.column(PROVENANCE_COLUMN))
        assert tags == {PROVENANCE_SYNOPSIS}
        assert answer.guard.fallback_reason is None

    def test_answer_matches_unguarded_on_healthy_synopsis(self, system):
        guarded = system.answer(SQL)
        plain = system.answer(SQL, guard=False)
        assert guarded.result.num_rows == plain.result.num_rows
        np.testing.assert_allclose(
            np.asarray(guarded.result.column("s"), dtype=float),
            np.asarray(plain.result.column("s"), dtype=float),
        )


class TestRepair:
    def test_truncated_stratum_repaired_exactly(self, system):
        fault = FaultInjector(system).truncate_sample("rel", keep=1)
        answer = system.answer(SQL)
        assert answer.guard.counts.get(PROVENANCE_REPAIRED, 0) >= 1
        assert fault.key in answer.guard.flagged
        exact = {
            (r["a"], r["b"]): r["s"] for r in system.exact(SQL).to_dicts()
        }
        for row in answer.result.to_dicts():
            if row[PROVENANCE_COLUMN] == PROVENANCE_REPAIRED:
                key = (row["a"], row["b"])
                assert row["s"] == pytest.approx(exact[key])
                assert row["s_error"] == 0.0

    def test_missing_group_restored(self, system):
        FaultInjector(system).empty_allocation("rel")
        answer = system.answer(SQL)
        exact = system.exact(SQL)
        assert answer.result.num_rows == exact.num_rows
        assert answer.guard.counts.get(PROVENANCE_REPAIRED, 0) >= 1

    def test_order_by_preserved_after_repair(self, system):
        FaultInjector(system).truncate_sample("rel", keep=1)
        answer = system.answer(SQL)
        keys = list(
            zip(answer.result.column("a"), answer.result.column("b"))
        )
        assert keys == sorted(keys)

    def test_where_clause_respected_in_repair(self, system):
        FaultInjector(system).truncate_sample("rel", keep=1)
        sql = (
            "select a, b, sum(q) s from rel where q > 100 "
            "group by a, b order by a, b"
        )
        answer = system.answer(sql)
        exact = {
            (r["a"], r["b"]): r["s"] for r in system.exact(sql).to_dicts()
        }
        for row in answer.result.to_dicts():
            if row[PROVENANCE_COLUMN] == PROVENANCE_REPAIRED:
                assert row["s"] == pytest.approx(exact[(row["a"], row["b"])])


# SQL, and the output names of its GROUP BY columns in GROUP BY order
ALIASED = {
    "one column": ("select a as x, sum(q) as s from rel group by a", ["x"]),
    "two columns": (
        "select a as x, b as y, sum(q) as s from rel group by a, b",
        ["x", "y"],
    ),
    "names swapped": (
        "select b as a, a as b, sum(q) as s from rel group by a, b",
        ["b", "a"],
    ),
}


class TestAliasedGroupColumns:
    """A group column selected under an alias: the bounds, guard and repair
    stages look it up under its output name, as ``exact()`` always did."""

    @staticmethod
    def by_key(table, key_columns):
        return {
            tuple(row[name] for name in key_columns): row
            for row in table.to_dicts()
        }

    @pytest.mark.parametrize("guard", [None, False], ids=["guarded", "off"])
    @pytest.mark.parametrize("shape", sorted(ALIASED))
    def test_answers_the_groups_exact_does(self, system, shape, guard):
        sql, key_columns = ALIASED[shape]
        exact = self.by_key(system.exact(sql), key_columns)
        answer = system.answer(sql, guard=guard)
        names = answer.result.schema.names
        assert names[: len(key_columns) + 1] == system.exact(sql).schema.names
        approx = self.by_key(answer.result, key_columns)
        assert set(approx) == set(exact)
        for key, row in approx.items():
            assert row["s"] == pytest.approx(exact[key]["s"], rel=0.15)
            assert 0.0 <= row["s_error"] < abs(row["s"])  # and not NaN
        if guard is None:
            assert not answer.guard.degraded
            assert set(answer.guard.provenance) == set(exact)

    @pytest.mark.parametrize("shape", sorted(ALIASED))
    def test_repairs_the_flagged_groups(self, system, shape):
        sql, key_columns = ALIASED[shape]
        policy = GuardPolicy(
            max_relative_halfwidth=1e-9, max_repair_fraction=1.0
        )
        answer = system.answer(sql, guard=policy)
        assert answer.guard.fallback_reason is None
        assert answer.guard.counts[PROVENANCE_REPAIRED] >= 2
        exact = self.by_key(system.exact(sql), key_columns)
        approx = self.by_key(answer.result, key_columns)
        assert set(approx) == set(exact) == set(answer.guard.provenance)
        for key, row in approx.items():
            if row[PROVENANCE_COLUMN] == PROVENANCE_REPAIRED:
                assert row["s"] == pytest.approx(exact[key]["s"])
                assert row["s_error"] == 0.0

    def test_exact_fallback_and_compare(self, system):
        sql, key_columns = ALIASED["two columns"]
        FaultInjector(system).corrupt_scale_factor("rel")
        answer = system.answer(sql)
        assert answer.guard.fallback_reason is not None
        assert len(answer.guard.provenance) == answer.result.num_rows == 6
        report = system.compare(sql, guard=False)
        assert report.errors["s"].per_group.keys() == set(
            self.by_key(report.exact, key_columns)
        )


class TestManyGroupRepair:
    """ROADMAP item 1c: the repair predicate over hundreds of multi-column
    groups used to be a left-deep ``Or`` chain, one level per group, that the
    recursive predicate walkers could not follow."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(11)
        n = 8 * 8 * 8 * 12
        schema = Schema(
            [
                Column("a", ColumnType.INT, "grouping"),
                Column("b", ColumnType.INT, "grouping"),
                Column("c", ColumnType.STR, "grouping"),
                Column("q", ColumnType.FLOAT, "aggregate"),
            ]
        )
        table = Table.from_columns(
            schema,
            a=np.arange(n) % 8,
            b=(np.arange(n) // 8) % 8,
            c=np.char.add("c", ((np.arange(n) // 64) % 8).astype(str)),
            q=rng.normal(50.0, 5.0, n),
        )
        system = AquaSystem(space_budget=2048, rng=np.random.default_rng(2))
        system.register_table("wide", table)
        return system

    def test_repairs_hundreds_of_three_column_groups(self, wide):
        sql = "select a, b, c, sum(q) s from wide group by a, b, c"
        # every group has 4 sample tuples of 12: demanding 5 flags them all
        policy = GuardPolicy(min_group_support=5, max_repair_fraction=1.0)
        answer = wide.answer(sql, guard=policy)
        assert len(answer.guard.flagged) == 512 >= 400
        assert answer.guard.counts == {PROVENANCE_REPAIRED: 512}
        assert answer.guard.fallback_reason is None
        exact = wide.exact(sql).sort_by(["a", "b", "c"])
        repaired = answer.result.sort_by(["a", "b", "c"])
        assert np.allclose(repaired.column("s"), exact.column("s"))

    def test_repair_predicate_is_a_shallow_tree(self, wide):
        query = parse_query("select a, b, c, sum(q) s from wide group by a, b, c")
        keys = [(a, b, f"c{c}") for a in range(8) for b in range(8) for c in range(8)]
        restricted = wide._restrict_to_groups(query, ["a", "b", "c"], keys)

        def depth(node):
            children = [
                getattr(node, name)
                for name in ("left", "right")
                if isinstance(getattr(node, name, None), Predicate)
            ]
            return 1 + max((depth(child) for child in children), default=0)

        assert depth(restricted.where) <= 2 + 9 + 2  # log2(512) Or levels
        mask = restricted.where.evaluate(wide.catalog.get("wide"))
        assert mask.all()

    def test_residual_recursion_error_is_typed(self, wide):
        clauses = " or ".join(f"q > {1000 + i}" for i in range(3000))
        with pytest.raises(AquaError) as caught:
            wide.answer(f"select a, sum(q) s from wide where {clauses} group by a")
        assert isinstance(caught.value, QueryTooDeepError)
        assert isinstance(caught.value.__cause__, RecursionError)


class TestFullFallback:
    def test_tight_halfwidth_budget_forces_exact(self, system):
        policy = GuardPolicy(max_relative_halfwidth=1e-12)
        answer = system.answer(SQL, guard=policy)
        tags = answer.result.column(PROVENANCE_COLUMN)
        assert all(tag == PROVENANCE_EXACT for tag in tags)
        assert answer.guard.fallback_reason is not None
        errors = np.asarray(answer.result.column("s_error"), dtype=float)
        assert (errors == 0.0).all()
        exact = {
            (r["a"], r["b"]): r["s"] for r in system.exact(SQL).to_dicts()
        }
        for row in answer.result.to_dicts():
            assert row["s"] == pytest.approx(exact[(row["a"], row["b"])])

    def test_guard_violation_when_fallback_disabled(self, system):
        policy = GuardPolicy(
            max_relative_halfwidth=1e-12, exact_fallback=False
        )
        with pytest.raises(GuardViolationError):
            system.answer(SQL, guard=policy)

    def test_no_group_by_falls_back_whole_query(self, system):
        policy = GuardPolicy(max_relative_halfwidth=1e-12)
        answer = system.answer(
            "select sum(q) s from rel", guard=policy
        )
        assert list(answer.result.column(PROVENANCE_COLUMN)) == [
            PROVENANCE_EXACT
        ]

    def test_repair_disabled_goes_exact(self, system):
        FaultInjector(system).truncate_sample("rel", keep=1)
        answer = system.answer(SQL, guard=GuardPolicy(repair=False))
        tags = set(answer.result.column(PROVENANCE_COLUMN))
        assert tags == {PROVENANCE_EXACT}


class TestStaleness:
    def insert_rows(self, system, count):
        row = next(iter(system._state("rel").table.iter_rows()))
        for __ in range(count):
            system.insert("rel", row)

    def test_on_stale_raise(self, system):
        self.insert_rows(system, 10)
        policy = GuardPolicy(staleness_limit=5, on_stale="raise")
        with pytest.raises(StaleSynopsisError, match="stale"):
            system.answer(SQL, guard=policy)

    def test_on_stale_refresh_clears_drift(self, system):
        self.insert_rows(system, 10)
        policy = GuardPolicy(staleness_limit=5, on_stale="refresh")
        answer = system.answer(SQL, guard=policy)
        assert system._state("rel").inserts_since_refresh == 0
        assert answer.guard.stale_inserts == 0

    def test_on_stale_exact(self, system):
        self.insert_rows(system, 10)
        policy = GuardPolicy(staleness_limit=5, on_stale="exact")
        answer = system.answer(SQL, guard=policy)
        tags = set(answer.result.column(PROVENANCE_COLUMN))
        assert tags == {PROVENANCE_EXACT}
        assert "stale" in answer.guard.fallback_reason

    def test_on_stale_serve_reports_drift(self, system):
        self.insert_rows(system, 10)
        policy = GuardPolicy(staleness_limit=5, on_stale="serve")
        answer = system.answer(SQL, guard=policy)
        assert answer.guard.stale_inserts == 10


class TestPolicyValidation:
    def test_negative_support_rejected(self):
        with pytest.raises(ValueError, match="min_group_support"):
            GuardPolicy(min_group_support=-1)

    def test_bad_on_stale_rejected(self):
        with pytest.raises(ValueError, match="on_stale"):
            GuardPolicy(on_stale="panic")

    def test_bad_repair_fraction_rejected(self):
        with pytest.raises(ValueError, match="max_repair_fraction"):
            GuardPolicy(max_repair_fraction=1.5)

    def test_report_describe_mentions_tags(self, system):
        FaultInjector(system).truncate_sample("rel", keep=1)
        answer = system.answer(SQL)
        text = answer.guard.describe()
        assert "repaired" in text and "flagged" in text
