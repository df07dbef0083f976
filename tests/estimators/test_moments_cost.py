"""Wall-clock bound on the moments kernel (``-m timing``).

The table is the benchmark's: 200,000 ``lineitem`` rows in 1,000 groups and
a 10,000-row synopsis (``benchmarks/e2e/workloads.set_up``).  A paper Qg0
over 7 % of ``l_id`` keeps about 690 of the sample's rows, in about 390 of
its 1,000 strata.  :meth:`SampleMoments.build` gathers those rows and runs
its bincounts over them alone; the masked all-rows formulation it replaced
(``moments_reference.py``) ran seven weighted bincounts over all 10,000.

Both sides work out every variance term (the kernel defers the all-ones
column's to its first read).  On a 2-vCPU host the kernel measured
0.30-0.32x the oracle (127-149 us against 428-473 us, three runs), with
byte-identical moments.
"""

import statistics
import time

import numpy as np
import pytest

from repro import AquaSystem
from repro.engine.sql import parse_query
from repro.estimators.moments import SampleMoments
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem, qg0
from tests.estimators.moments_reference import masked_build

pytestmark = pytest.mark.timing

QUERIES = 300
WIDTH = 14_000  # 7 % of l_id


def test_a_qg0_build_costs_at_most_half_the_masked_formulation():
    table = generate_lineitem(
        LineitemConfig(table_size=200_000, num_groups=1000, seed=0)
    )
    system = AquaSystem(space_budget=10_000, rng=np.random.default_rng(1))
    system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
    sample = system.synopsis("lineitem").sample
    starts = np.random.default_rng(7).choice(
        200_000 - WIDTH, size=QUERIES, replace=False
    )
    queries = [
        parse_query(qg0(int(start), WIDTH).sql).bind()[0] for start in starts
    ]
    kernel, oracle = [], []
    for i, query in enumerate(queries):
        # alternate which goes first, so neither always finds warm caches
        runs = [(kernel, SampleMoments.build), (oracle, masked_build)]
        for seconds, build in runs[:: 1 if i % 2 else -1]:
            start = time.perf_counter()
            moments = build(
                sample, query.where, query.aggregates(), query.group_by, None
            )
            if build is SampleMoments.build:  # the all-ones column's
                for sums in moments.sums.values():  # variance: on first read
                    sums.var_contrib
            seconds.append(time.perf_counter() - start)
    ratio = statistics.median(kernel) / statistics.median(oracle)
    assert ratio <= 0.5, (
        f"build {1e6 * statistics.median(kernel):.0f} us is {ratio:.2f}x "
        f"the masked formulation's {1e6 * statistics.median(oracle):.0f} us"
    )
