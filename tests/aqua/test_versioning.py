"""The one version bump: every mutation advances it, and frees the old one.

Each mutation -- insert, pending-row flush, synopsis refresh, portfolio
build, re-registration -- advances the table's data version by exactly
one and drops that table's entries from all four version-keyed stores
(answer cache, plan cache, roll-up index, portfolio resolutions), leaving
other tables' alone.  So nothing the system holds references a replaced
sample, and an answer computed from one version is never cached under
another -- not even when a refresh lands while it is in flight.
"""

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.aqua import AquaSystem
from repro.engine import Column, ColumnType, Schema, Table
from repro.errors import SynopsisMissingError

FINE = "SELECT g, h, SUM(v) AS s FROM {} GROUP BY g, h"
PLANNED = "SELECT g, SUM(v) AS s FROM {} GROUP BY g HAVING s > 0"
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


def _populate(system, name):
    """An entry for ``name`` in each store: an answer (answer cache and
    roll-up index), an explained plan (plan cache) and a budgeted answer
    (portfolio resolution)."""
    system.answer(FINE.format(name))
    system.explain(PLANNED.format(name))
    system.answer(SUM_BY_G.replace(" t ", f" {name} "), max_rel_error=0.5)


def _system():
    system = AquaSystem(space_budget=600, rng=np.random.default_rng(5))
    for name, seed in (("t", 11), ("u", 12)):
        system.register_table(name, _table(seed=seed))
        system.build_portfolio(name)
        _populate(system, name)
    return system


def _stored(system, name):
    """The table's keys in each of the four version-keyed stores."""
    resolutions = (
        system.portfolio(name)._resolutions._entries
        if system.has_portfolio(name)
        else {}
    )
    return {
        "answer": [k for k in system.answer_cache._entries if k[0] == name],
        "plan": [k for k in system.plan_cache._entries if k[0] == name],
        "rollup": [
            k for k in system.rollup_index._entries._entries if k[0] == name
        ],
        "resolutions": list(resolutions),
    }


def _flush(system):
    system.insert("t", ("a", "x", 5.0))  # pending row, flushed below
    _populate(system, "t")  # refill t's stores at the post-insert version
    return lambda: system._flush_pending("t")


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
    """Its entries go from all four stores, the roll-up index included."""
    system = _system()
    mutate = MUTATIONS[mutation](system)
    before = {name: system.table_version(name) for name in ("t", "u")}
    kept = _stored(system, "u")
    assert all(_stored(system, "t").values()) and all(kept.values())

    mutate()

    assert system.table_version("t") == before["t"] + 1
    assert system.table_version("u") == before["u"]
    assert _stored(system, "t") == {
        "answer": [], "plan": [], "rollup": [], "resolutions": []
    }
    assert _stored(system, "u") == kept


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


def _single():
    system = AquaSystem(space_budget=600, rng=np.random.default_rng(5))
    system.register_table("t", _table(seed=11))
    return system


def _versions_held(system):
    """Every data version an entry in the answer cache or roll-up index
    was stored under."""
    return {key[1] for key in system.answer_cache._entries} | {
        key[1] for key in system.rollup_index._entries._entries
    }


def _values(table):
    return {
        name: table.column(name)
        for name in table.schema.names
        if table.column(name).dtype.kind in "fiu"
    }


class TestARefreshInsideAnAnswer:
    """A refresh that lands between an answer's computation and its store
    leaves nothing of the old version behind: the in-flight answer keeps
    the version it was computed from and is not cached."""

    @pytest.mark.parametrize(
        "sql, stage",
        [
            (FINE.format("t"), "_serve_moments"),
            (FINE.format("t"), "_bounded_answer"),
            (PLANNED.format("t"), "_bounded_answer"),
        ],
        ids=["moments-finalize", "moments-guard", "plan-guard"],
    )
    def test_next_answer_is_a_recompute(self, sql, stage):
        system = _single()
        inner = getattr(system, stage)

        def refresh_then(*args, **kwargs):
            del system.__dict__[stage]  # land once
            system.refresh_synopsis("t")
            return inner(*args, **kwargs)

        setattr(system, stage, refresh_then)
        version = system.table_version("t")
        in_flight = system.answer(sql)
        assert system.table_version("t") == version + 1
        assert _versions_held(system) <= {version + 1}

        after = system.answer(sql)
        assert not after.cache_hit
        system.answer_cache.invalidate()
        system.rollup_index.clear()
        recomputed = system.answer(sql)
        for name, values in _values(recomputed.result).items():
            np.testing.assert_array_equal(after.result.column(name), values)
        assert (in_flight.version, after.version) == (version, version + 1)

    def test_a_flush_inside_a_stream_keeps_it_out_of_the_cache(self):
        system = _single()
        sql = "SELECT g, SUM(v) AS s FROM t GROUP BY g"
        stream = system.sql_stream(sql, chunk_rows=500)
        next(stream)
        system.insert("t", ("a", "x", 5.0))
        system._flush_pending("t")  # flushes the pending row mid-stream
        *__, final = stream
        assert final.final
        assert _versions_held(system) <= {system.table_version("t")}

        again = list(system.sql_stream(sql, chunk_rows=500))
        assert not again[0].cache_hit
        assert again[-1].rows_total == 3001
        assert again[-1].result.column("s").tolist() == (
            system.exact(sql).column("s").tolist()
        )
        assert next(system.sql_stream(sql)).cache_hit


def _refresh(system):
    system.refresh_synopsis("t")


def _insert_and_refresh(system):
    system.insert("t", ("a", "x", 5.0))
    system.refresh_synopsis("t")


def _reregister(system):
    system.register_table("t", _table(seed=13))


class TestReplacedSamplesAreFreed:
    """Once the caller drops its own answers, nothing the system holds
    keeps a replaced sample -- or the base table it rests on -- alive."""

    @pytest.mark.parametrize(
        "replace",
        [_refresh, _insert_and_refresh, _reregister],
        ids=["refresh", "insert_and_refresh", "reregister"],
    )
    def test_primary_sample(self, replace):
        system = _single()
        answers = [
            system.answer(FINE.format("t")),
            system.answer(PLANNED.format("t")),
        ]
        replaced = weakref.ref(system.synopsis("t").sample)
        replace(system)
        del answers
        gc.collect()
        assert replaced() is None

    def test_portfolio_member_samples(self):
        system = _single()
        system.build_portfolio("t")
        answers = [system.answer(SUM_BY_G, max_rel_error=0.5)]
        replaced = [
            weakref.ref(member.synopsis.sample)
            for member in system.portfolio("t").members.values()
        ]
        system.build_portfolio("t")
        del answers
        gc.collect()
        assert [ref() for ref in replaced] == [None] * len(replaced)


def test_concurrent_writers_leave_no_entry_of_an_old_version():
    """Readers answer while a writer inserts, flushes and refreshes; every
    store checks the version under the table lock the bump holds, so once
    all threads are done no entry of an old version is left."""
    system = _single()
    # Fresh literals: every answer is a miss that stores on its way out.
    queries = [
        "SELECT g, h, SUM(v) AS s FROM t WHERE v > {} GROUP BY g, h",
        "SELECT g, SUM(v) AS s FROM t WHERE v > {} GROUP BY g HAVING s > 0",
    ]
    stop = threading.Event()
    errors = []

    def reader(k):
        try:
            i = k
            while not stop.is_set():
                system.answer(queries[i % 2].format(i))
                i += 1
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    readers = [
        threading.Thread(target=reader, args=(k,))
        for k in range((os.cpu_count() or 1) + 1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for i in range(24):
            time.sleep(0.002)  # let answers get under way between bumps
            system.insert("t", ("a", "x", float(i)))
            if i % 8 == 3:
                system._flush_pending("t")
            if i % 8 == 7:
                system.refresh_synopsis("t")
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert errors == []
    held = _versions_held(system) | {
        key[1] for key in system.plan_cache._entries
    }
    assert held <= {system.table_version("t")}
