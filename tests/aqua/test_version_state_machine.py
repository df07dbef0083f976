"""Stateful property: every stored entry belongs to its table's version.

A Hypothesis state machine drives one small table through inserts,
flushes, refreshes (maintained once maintenance is on), portfolio builds,
streams run to completion and answers -- including answers a refresh
lands inside of -- and after every step checks:

* no entry in any of the four version-keyed stores (answer cache, plan
  cache, roll-up index, portfolio resolutions) carries a version other
  than the table's current one;
* every cache- or roll-up-served answer equals the same SQL answered
  again after ``answer_cache.invalidate()`` + ``rollup_index.clear()``
  (numeric columns; the provenance tag names the tier);
* every row present is either covered by the synopsis or counted as
  inserted since its refresh;
* every answer repaired in every group, and every full exact fallback,
  counts the rows of the version it carries, pending rows included.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.aqua import AquaSystem, GuardPolicy  # noqa: E402
from repro.engine import Column, ColumnType, Schema, Table  # noqa: E402

QUERIES = [
    "SELECT g, h, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g, h",
    "SELECT g, SUM(v) AS s FROM t GROUP BY g",  # rolls up from the first
    "SELECT AVG(v) AS m FROM t WHERE g = 'a'",
    "SELECT SUM(v) AS s FROM t GROUP BY h",  # h unselected
    "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING s > 0",
]
BUDGETED = "SELECT g, SUM(v) AS s FROM t GROUP BY g"
COUNTED = "SELECT g, h, COUNT(*) AS c FROM t GROUP BY g, h"
REPAIR_ALL = GuardPolicy(min_group_support=10**6, max_repair_fraction=1.0)
FALL_BACK = GuardPolicy(min_group_support=10**6, max_repair_fraction=0.0)


def _table(n=600):
    rng = np.random.default_rng(3)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c"], size=n),
        h=rng.choice(["x", "y"], size=n),
        v=rng.gamma(2.0, 40.0, size=n),
    )


def _numeric(table):
    return {
        name: table.column(name)
        for name in table.schema.names
        if table.column(name).dtype.kind in "fiu"
    }


class VersionedStores(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.system = AquaSystem(space_budget=120, rng=np.random.default_rng(4))
        self.system.register_table("t", _table())
        self.rows_at = {}  # version -> rows present at it
        self.counted = []  # (version, COUNT(*) total) of base-read answers

    @rule(g=st.sampled_from("abc"), h=st.sampled_from("xy"),
          v=st.floats(0.0, 500.0))
    def insert(self, g, h, v):
        self.system.insert("t", (g, h, v))

    @rule()
    def flush(self):
        self.system._flush_pending("t")

    @rule()
    def refresh(self):
        self.system.refresh_synopsis("t")

    @rule()
    def build_portfolio(self):
        self.system.build_portfolio("t")

    @rule()
    def enable_maintenance(self):
        self.system.enable_maintenance("t")

    @rule(sql=st.sampled_from(QUERIES))
    def stream_to_completion(self, sql):
        *__, last = self.system.sql_stream(sql, chunk_rows=256)
        assert last.final

    @rule(sql=st.sampled_from(QUERIES))
    def answer(self, sql):
        self._check_served(sql, self.system.answer(sql))

    @precondition(lambda self: self.system.has_portfolio("t"))
    @rule()
    def answer_budgeted(self):
        served = self.system.answer(BUDGETED, max_rel_error=0.5)
        self._check_served(BUDGETED, served, max_rel_error=0.5)

    @rule(sql=st.sampled_from(QUERIES))
    def answer_with_a_refresh_inside(self, sql):
        system = self.system
        inner = system._bounded_answer

        def refresh_then(*args, **kwargs):
            del system.__dict__["_bounded_answer"]
            system.refresh_synopsis("t")
            return inner(*args, **kwargs)

        system._bounded_answer = refresh_then
        try:
            system.answer(sql)
        finally:
            system.__dict__.pop("_bounded_answer", None)

    @rule(policy=st.sampled_from([REPAIR_ALL, FALL_BACK]))
    def answer_from_the_base(self, policy):
        served = self.system.answer(COUNTED, guard=policy)
        tags = {"exact"} if policy is FALL_BACK else {"repaired"}
        assert set(served.provenance_counts) <= tags
        self.counted.append(
            (served.version, sum(served.result.column("c").tolist()))
        )

    def _check_served(self, sql, served, **budget):
        if not (served.cache_hit or served.cache_tier == "rollup"):
            return
        self.system.answer_cache.invalidate()
        self.system.rollup_index.clear()
        fresh = self.system.answer(sql, **budget)
        assert served.result.num_rows == fresh.result.num_rows, sql
        for name, values in _numeric(fresh.result).items():
            np.testing.assert_array_equal(
                served.result.column(name), values, err_msg=sql
            )

    @invariant()
    def every_entry_is_at_the_current_version(self):
        system = self.system
        held = (
            [key[1] for key in system.answer_cache._entries]
            + [key[1] for key in system.plan_cache._entries]
            + [key[1] for key in system.rollup_index._entries._entries]
        )
        if system.has_portfolio("t"):
            held += [key[0] for key in system.portfolio("t")._resolutions._entries]
        assert set(held) <= {system.table_version("t")}

    @invariant()
    def every_row_is_covered_or_counted_since_the_refresh(self):
        health = self.system.health("t")
        if health.built:
            assert (
                health.rows_at_refresh + health.inserts_since_refresh
                == health.base_rows + health.pending_rows
            )

    @invariant()
    def every_base_read_counts_the_rows_of_its_version(self):
        record = self.system._state("t")
        self.rows_at.setdefault(record.version, record.rows)
        for version, total in self.counted:
            assert total == self.rows_at[version], (version, total)


TestVersionedStores = VersionedStores.TestCase
TestVersionedStores.settings = settings(
    max_examples=50, stateful_step_count=15, deadline=None
)
