"""Wall-clock bound on a maintained insert (``-m timing``).

The table is the benchmark's: 200,000 ``lineitem`` rows in 1,000 groups and
a 10,000-row synopsis (``benchmarks/e2e/workloads.set_up``).  With
maintenance on, ``AquaSystem.insert`` hands the row to the Eq. 8
maintainer, which only buffers it; the next refresh loads the buffered
rows as one table.  So a maintained insert costs about what a plain one
does: a pending-row append and a version bump, which walks no cache when
nothing was stored since the last one.

Inserts that counted the row into the cube, thinned its group and flipped
its coin one at a time measured 4.7-6.0x a plain insert on a 2-vCPU host;
buffered ones measured 1.0-1.2x.
"""

import time

import numpy as np
import pytest

from repro import AquaSystem
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

pytestmark = pytest.mark.timing

ROWS_PER_CYCLE = 250  # the benchmark's ingest_mix cycle
CYCLES = 15


def benchmark_system(table, maintained):
    system = AquaSystem(space_budget=10_000, rng=np.random.default_rng(1))
    system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
    if maintained:
        system.enable_maintenance("lineitem")
    return system


def cycle_us(system, rows) -> float:
    """Microseconds per insert over one cycle of single inserts."""
    start = time.perf_counter()
    for row in rows:
        system.insert("lineitem", row)
    return 1e6 * (time.perf_counter() - start) / len(rows)


def test_a_maintained_insert_costs_at_most_two_plain_inserts():
    table = generate_lineitem(
        LineitemConfig(table_size=200_000, num_groups=1000, seed=0)
    )
    more = generate_lineitem(
        LineitemConfig(
            table_size=ROWS_PER_CYCLE * CYCLES, num_groups=1000, seed=1
        )
    )
    rows = list(zip(*(more.column(name).tolist() for name in more.schema.names)))
    plain = benchmark_system(table, maintained=False)
    maintained = benchmark_system(table, maintained=True)
    plain_us, maintained_us = [], []
    for cycle in range(CYCLES):
        batch = rows[cycle * ROWS_PER_CYCLE : (cycle + 1) * ROWS_PER_CYCLE]
        plain_us.append(cycle_us(plain, batch))
        maintained_us.append(cycle_us(maintained, batch))
        maintained.refresh_synopsis("lineitem")  # loads the cycle's rows
    ratio = np.median(maintained_us) / np.median(plain_us)
    assert ratio <= 2.0, (ratio, np.median(maintained_us), np.median(plain_us))
