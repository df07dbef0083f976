"""Tripwire: no read publishes, and no read takes the catalog's base entry.

On a table with pending inserts, every read -- a clean, a repaired, a
fully exact and a stale-to-exact answer, a stream run to completion,
``exact()``, ``compare()`` and an audit -- succeeds while
``_flush_pending`` and ``catalog.get`` of the base table raise.  Each
reads the rows of the record it took (``TableVersion.relation()``: the
base relation and the pending rows), leaves the table's version where it
was, and counts every row present.
"""

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy
from repro.engine import Column, ColumnType, Schema, Table
from repro.obs.audit import AccuracyAuditor, AuditConfig

SQL = "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY g"
ROWS = 2000
PENDING = 30


def _table():
    rng = np.random.default_rng(3)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c", "d"], size=ROWS),
        v=rng.gamma(2.0, 40.0, size=ROWS),
    )


def _tripped(*args, **kwargs):
    raise AssertionError("a read published or took the catalog's base entry")


@pytest.fixture
def system(monkeypatch):
    system = AquaSystem(space_budget=400, rng=np.random.default_rng(4))
    system.register_table("t", _table())
    system.insert_many("t", [("b", float(i)) for i in range(PENDING)])
    get = system.catalog.get
    monkeypatch.setattr(system, "_flush_pending", _tripped)
    monkeypatch.setattr(
        system.catalog,
        "get",
        lambda name: _tripped() if name == "t" else get(name),
    )
    return system


def _answer(guard, provenance):
    def read(system):
        answer = system.answer(SQL, guard=guard)
        assert set(answer.provenance_counts) == {provenance}
        return answer.result

    return read


def _stream(system):
    *__, final = system.sql_stream(SQL, chunk_rows=500)
    assert final.final and final.rows_total == ROWS + PENDING
    return final.result


def _audit(system):
    auditor = AccuracyAuditor(
        system,
        AuditConfig(sample_fraction=1.0),
        rng=np.random.default_rng(5),
        background=False,
    )
    system.attach_auditor(auditor)
    result = system.answer(SQL).result
    (finding,) = auditor.drain()
    assert finding.groups_checked > 0
    return result


READS = {
    "clean": _answer(None, "synopsis"),
    "repaired": _answer(
        GuardPolicy(min_group_support=10**6, max_repair_fraction=1.0),
        "repaired",
    ),
    "fallback": _answer(
        GuardPolicy(min_group_support=10**6, max_repair_fraction=0.0),
        "exact",
    ),
    "stale_exact": _answer(
        GuardPolicy(staleness_limit=0, on_stale="exact"), "exact"
    ),
    "stream": _stream,
    "exact": lambda system: system.exact(SQL),
    "compare": lambda system: system.compare(SQL).exact,
    "audit": _audit,
}


@pytest.mark.parametrize("read", sorted(READS))
def test_a_read_publishes_nothing_and_reads_its_record(system, read):
    version = system.table_version("t")
    result = READS[read](system)
    assert system.table_version("t") == version
    assert system._state("t").pending_count == PENDING
    if read != "clean" and read != "audit":  # estimates, not counts
        assert sum(result.column("c").tolist()) == ROWS + PENDING


def test_exact_twice_builds_the_relation_once(system, monkeypatch):
    built = []
    concat = Table.concat

    def counted(self, other):
        built.append(other.num_rows)
        return concat(self, other)

    monkeypatch.setattr(Table, "concat", counted)
    first = system.exact(SQL)
    second = system.exact(SQL)
    assert built == [PENDING]
    assert first.column("s").tolist() == second.column("s").tolist()


def test_a_later_record_appends_to_the_last_relation(system, monkeypatch):
    """A relation is built from the buffer's last one when that holds a
    prefix of its rows, byte for byte what building it whole gives."""
    system._state("t").relation()
    system.insert_many("t", [("a wider key", 1.5), ("b", 2.0)])
    record = system._state("t")
    built = []
    concat = Table.concat

    def counted(self, other):
        built.append(other.num_rows)
        return concat(self, other)

    monkeypatch.setattr(Table, "concat", counted)
    relation = record.relation()
    assert built == [2]
    whole = concat(
        record.table, Table.from_rows(record.table.schema, record.pending_rows)
    )
    for name in whole.schema.names:
        assert relation.column(name).dtype == whole.column(name).dtype
        assert relation.column(name).tobytes() == whole.column(name).tobytes()
