"""A refresh frees the sample it replaces at once, without the cycle
collector.

The frame holds the sample's arrays, not the sample: a frame -> sample
reference would close a cycle (the sample caches its frame), and every
replaced version would then wait for a ``gc`` pass, which shows as a
higher ``ingest_mix`` ``peak_rss_mb``.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import AquaSystem
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

SQL = (
    "select l_returnflag, l_linestatus, sum(l_quantity) s from lineitem "
    "where l_id >= {k} group by l_returnflag, l_linestatus"
)


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_replaced_sample_and_frame_die_with_the_next_refresh(gc_off):
    table = generate_lineitem(
        LineitemConfig(table_size=5000, num_groups=60, seed=0)
    )
    system = AquaSystem(space_budget=400, rng=np.random.default_rng(1))
    system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
    system.enable_maintenance("lineitem")
    rows = list(table.slice(0, 50).iter_rows())
    system.insert_many("lineitem", rows)
    sample = system.refresh_synopsis("lineitem").sample
    for k in (1, 2):
        system.answer(SQL.format(k=k))  # builds and uses the frame
    sample_ref, frame_ref = weakref.ref(sample), weakref.ref(sample.frame)
    del sample
    system.insert_many("lineitem", rows)
    system.refresh_synopsis("lineitem")
    assert sample_ref() is None
    assert frame_ref() is None
