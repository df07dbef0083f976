"""OLAP session throughput: a full drill-down loop from one synopsis.

The paper's usability claim -- one congressional sample serves the whole
roll-up/drill-down process -- as a latency benchmark: time a six-step
navigation session (rollup -> drilldowns -> slice -> rollup) through the
CubeExplorer, and compare the session against running the same six queries
exactly.
"""

import time

import numpy as np
import pytest

from repro.aqua import AquaSystem, CubeExplorer, Measure
from repro.experiments import format_mapping_table
from repro.synthetic import LineitemConfig, generate_lineitem


@pytest.fixture(scope="module")
def aqua():
    lineitem = generate_lineitem(
        LineitemConfig(table_size=150_000, num_groups=512, group_skew=1.0, seed=4)
    )
    system = AquaSystem(space_budget=5000, rng=np.random.default_rng(0))
    system.register_table("lineitem", lineitem)
    return system


def run_session(aqua, exact: bool):
    cube = CubeExplorer(
        aqua, "lineitem", [Measure("sum", "l_quantity", "qty")]
    )
    view = cube.view_exact if exact else (lambda: cube.view().result)

    results = [view()]
    cube.drilldown("l_returnflag")
    results.append(view())
    cube.drilldown("l_linestatus")
    results.append(view())
    flag = int(results[-1].column("l_returnflag")[0])
    cube.slice("l_returnflag", flag)
    results.append(view())
    cube.drilldown("l_shipdate")
    results.append(view())
    cube.rollup("l_linestatus")
    results.append(view())
    return results


def test_olap_session(benchmark, aqua, save_result):
    approx_results = benchmark(lambda: run_session(aqua, exact=False))
    assert all(table.num_rows > 0 for table in approx_results)

    start = time.perf_counter()
    exact_results = run_session(aqua, exact=True)
    exact_seconds = time.perf_counter() - start

    start = time.perf_counter()
    run_session(aqua, exact=False)
    approx_seconds = time.perf_counter() - start

    # Every navigation state is answered with full group coverage.
    for approx, exact in zip(approx_results, exact_results):
        assert approx.num_rows == exact.num_rows

    save_result(
        "olap_session",
        format_mapping_table(
            "mode",
            {
                "approximate": {"seconds": approx_seconds},
                "exact": {"seconds": exact_seconds},
                "speedup": {"seconds": exact_seconds / approx_seconds},
            },
            precision=4,
            title="OLAP six-step session: one synopsis vs exact queries",
        ),
    )
    assert approx_seconds < exact_seconds

