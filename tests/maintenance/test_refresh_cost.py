"""Wall-clock bound on a maintained refresh (``-m timing``).

The table is the benchmark's: 200,000 ``lineitem`` rows in 1,000 groups and
a 10,000-row synopsis (``benchmarks/e2e/workloads.set_up``), with
maintenance on, fed 250 inserted rows per cycle as ``ingest_mix`` does.
A refresh is worth its cost only if it is cheap next to the answers it
serves, so ``refresh_synopsis`` plus the first fresh-literal Qg2 answer
after it -- which pays for the new version's frame and expected groups --
must cost at most 8x a later fresh-literal Qg2 answer.

The per-stratum hand-over (``Stratum`` dicts from the snapshot to the
frame, a ``lexsort`` scale-down and loop rounding) read 11.6-12.6x in one
series of runs and 10.9-13.0x in another; the columnar one read 5.9-6.0x
and 5.9-6.1x, all on 2-vCPU Xeon hosts.
"""

import time
from itertools import count

import numpy as np
import pytest

from repro import AquaSystem
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

pytestmark = pytest.mark.timing

ROWS_PER_CYCLE = 250
CYCLES = 12
QG2 = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS agg_a, "
    "SUM(l_extendedprice) AS agg_b FROM lineitem WHERE l_id >= {k} "
    "GROUP BY l_returnflag, l_linestatus"
)


def timed_ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - start)


def test_refresh_and_first_answer_cost_at_most_eight_answers():
    table = generate_lineitem(
        LineitemConfig(table_size=200_000, num_groups=1000, seed=0)
    )
    system = AquaSystem(space_budget=10_000, rng=np.random.default_rng(1))
    system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
    system.enable_maintenance("lineitem")
    rows = list(table.slice(0, ROWS_PER_CYCLE * CYCLES).iter_rows())
    literals = count(1)

    def refresh_and_answer():
        system.refresh_synopsis("lineitem")
        system.answer(QG2.format(k=next(literals)))

    first, later = [], []
    for cycle in range(CYCLES):
        system.insert_many(
            "lineitem", rows[cycle * ROWS_PER_CYCLE : (cycle + 1) * ROWS_PER_CYCLE]
        )
        first.append(timed_ms(refresh_and_answer))
        for __ in range(2):
            later.append(
                timed_ms(lambda: system.answer(QG2.format(k=next(literals))))
            )
    # the first cycle warms the code paths up
    refresh, answer = np.median(first[1:]), np.median(later[2:])
    assert refresh <= 8 * answer, (refresh, answer)
