"""Each table is one immutable record, replaced by one publish under the
system's writer lock; readers take the current record and no lock."""

import threading

import pytest

from repro import AquaSystem

SQL = "select a, b, sum(q) s from rel group by a, b order by a, b"


@pytest.fixture
def system(skewed_table, rng):
    system = AquaSystem(space_budget=500, rng=rng, cache=False)
    system.register_table("rel", skewed_table)
    return system


def test_readers_do_not_wait_for_a_writer(system):
    """While a writer holds the lock (say, a maintained refresh between its
    snapshot and its install), answers and reports are still served."""
    read = {}

    def reader():
        read["answer"] = system.answer(SQL)
        read["health"] = system.health("rel")
        read["synopsis"] = system.synopsis("rel")
        read["version"] = system.table_version("rel")

    thread = threading.Thread(target=reader, daemon=True)
    with system._writer:
        thread.start()
        thread.join(timeout=2)
        assert not thread.is_alive(), "a reader waited for the writer lock"
    assert set(read["answer"].provenance_counts) == {"synopsis"}
    assert read["health"].issues == ()
    assert read["version"] == system.table_version("rel")


def test_a_published_record_is_never_changed(system):
    """An insert publishes a successor that shares the pending list; a
    flush starts a new list, so older records keep their own rows."""
    before = system._state("rel")
    system.insert("rel", next(iter(before.table.iter_rows())))
    after = system._state("rel")
    assert after.version == before.version + 1
    assert (before.pending_rows, len(after.pending_rows)) == ([], 1)
    with pytest.raises(AttributeError):
        after.version = 0
    system._flush_pending("rel")
    flushed = system._state("rel")
    assert (flushed.pending_rows, flushed.table.num_rows) == ([], 20_001)
    assert len(after.pending_rows) == 1
    assert after.table.num_rows == 20_000
