"""Wall-clock bound on loading a maintained sample (``-m timing``).

The table is the benchmark's: 200,000 ``lineitem`` rows in 1,000 groups and
a 10,000-row synopsis (``benchmarks/e2e/workloads.set_up``).
``enable_maintenance`` loads the whole table into the Eq. 8 maintainer over
the allocation's groupings: one ``factorize`` to count it, one coin per row
at its group's final probability, and one ``take`` of the accepted rows.
That is no more work than ``build_synopsis``, which counts, allocates and
draws from the same membership pass, for any of the four allocations.

The row-at-a-time load this replaced (one Python coin and one counter
update per row) measured 24-35x ``build_synopsis`` on a 2-vCPU host; the
batched load measured 0.5-0.7x.  The House, Senate and Basic Congress
reservoir maintainers that ran before every allocation took the Eq. 8 load
measured about 20x.
"""

import time

import numpy as np
import pytest

from repro import AquaSystem, BasicCongress, Congress, House, Senate
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

pytestmark = pytest.mark.timing


def median_ms(fn, repeats=5) -> float:
    fn()  # warm-up
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * float(np.median(samples))


@pytest.mark.parametrize(
    "strategy",
    [House(), Senate(), BasicCongress(), Congress()],
    ids=lambda strategy: strategy.name,
)
def test_enable_maintenance_costs_at_most_one_and_a_half_builds(strategy):
    table = generate_lineitem(
        LineitemConfig(table_size=200_000, num_groups=1000, seed=0)
    )
    system = AquaSystem(
        space_budget=10_000,
        allocation_strategy=strategy,
        rng=np.random.default_rng(1),
    )
    system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
    build = median_ms(lambda: system.build_synopsis("lineitem"))
    load = median_ms(lambda: system.enable_maintenance("lineitem"))
    assert load <= 1.5 * build, (load, build)
