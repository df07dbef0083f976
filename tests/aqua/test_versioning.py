"""The one version bump: every mutation advances it, and only by one.

Each mutation -- insert, pending-row flush, synopsis refresh, portfolio
build, re-registration -- advances the table's data version by exactly
one, drops that table's roll-up entries, and leaves other tables' alone.
Re-registration additionally drops what was built from the replaced
data, so nothing answers from it.
"""

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.errors import SynopsisMissingError

FINE = "SELECT g, h, SUM(v) AS s FROM {} GROUP BY g, h"
SUM_BY_G = "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY g"


def _table(n=3000, seed=11):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c", "d"], size=n),
        h=rng.choice(["x", "y"], size=n),
        v=rng.gamma(2.0, 40.0, size=n),
    )


def _system():
    system = AquaSystem(space_budget=600, rng=np.random.default_rng(5))
    system.register_table("t", _table(seed=11))
    system.register_table("u", _table(seed=12))
    return system


def _flush(system):
    system.insert("t", ("a", "x", 5.0))  # pending row, flushed below
    system.answer(FINE.format("t"))  # re-register t's snapshot
    return lambda: system.exact(FINE.format("t"))


MUTATIONS = {
    "insert": lambda s: lambda: s.insert("t", ("a", "x", 5.0)),
    "flush": _flush,
    "refresh": lambda s: lambda: s.refresh_synopsis("t"),
    "build_portfolio": lambda s: lambda: s.build_portfolio("t"),
    "reregister": lambda s: lambda: s.register_table(
        "t", _table(seed=13), build=False
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_bumps_once_and_drops_only_its_rollup_entries(mutation):
    system = _system()
    system.answer(FINE.format("t"))
    system.answer(FINE.format("u"))
    mutate = MUTATIONS[mutation](system)
    before = {name: system.table_version(name) for name in ("t", "u")}
    assert system.rollup_index.stats().entries == 2

    mutate()

    assert system.table_version("t") == before["t"] + 1
    assert system.table_version("u") == before["u"]
    remaining = system.rollup_index._entries.values()
    assert [snapshot.base_name for snapshot in remaining] == ["u"]


class TestReregistrationDropsReplacedState:
    def test_budgeted_answer_needs_a_new_portfolio(self):
        system = AquaSystem(space_budget=600, rng=np.random.default_rng(5))
        system.register_table("t", _table(n=4000, seed=11))
        system.build_portfolio("t")
        system.answer(SUM_BY_G, max_rel_error=0.5)
        system.register_table("t", _table(n=1000, seed=12))
        assert not system.has_portfolio("t")
        with pytest.raises(SynopsisMissingError):
            system.answer(SUM_BY_G, max_rel_error=0.5)
        system.build_portfolio("t")
        served = system.answer(SUM_BY_G, max_rel_error=10.0).result
        exact = system.exact(SUM_BY_G)
        np.testing.assert_allclose(
            served.column("s"), exact.column("s"), rtol=0.5
        )

    def test_unbuilt_replacement_serves_no_old_synopsis(self):
        system = AquaSystem(space_budget=600, rng=np.random.default_rng(5))
        system.register_table("t", _table(n=4000, seed=11))
        system.answer(SUM_BY_G)
        system.register_table("t", _table(n=1000, seed=12), build=False)
        with pytest.raises(SynopsisMissingError):
            system.answer(SUM_BY_G)
