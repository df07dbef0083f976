"""Wall-clock bounds on the guard's repair rung (``-m timing``).

The table is the benchmark's: 200,000 ``lineitem`` rows in 1,000 groups and
a 10,000-row synopsis (``benchmarks/e2e/workloads.set_up``), with the
answer cache off.  A repair restricts the base rows by combined group code
and aggregates them once, so it costs at most about one ``exact()`` run,
the premise of ``GuardPolicy.max_repair_fraction``.

The tree-based repair this replaced -- an ``Or`` of one ``And`` per flagged
group, run through ``exact()`` -- measured, median of 5 on 2 vCPU, two
runs:

=================  ===============  ===============  =============
query (Qg3)        groups repaired  guarded answer   ``exact()``
=================  ===============  ===============  =============
relative hw 1.6    1                5.7-7.4 ms       32-38 ms
relative hw 1.0    85               62-64 ms         29-30 ms
relative hw 0.6    586              420-422 ms       29 ms (15x)
=================  ===============  ===============  =============

In the same runs the unguarded answer took 0.6-0.8 ms, so the tree repair
of one group cost one restricted ``exact()`` (about 2 ms) plus about 3 ms
of row-by-row merging.  The one-group bound below rebuilds that tree
repair's scan (``exact()`` of the query restricted by ``And(WHERE, group
key)``) and prices the code-mask scan against it in the same process, so
the bound holds on any host.  The code-mask scan measured 1.0-1.15x the
tree scan, and the 586-group guarded answer 0.45-0.6x ``exact()``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro import AquaSystem, GuardPolicy
from repro.engine import Col, parse_query
from repro.engine.predicates import And, Comparison
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

pytestmark = pytest.mark.timing

QG3 = (
    "SELECT l_returnflag, l_linestatus, l_shipdate, SUM(l_quantity) AS agg_a "
    "FROM lineitem WHERE l_id >= 0 "
    "GROUP BY l_returnflag, l_linestatus, l_shipdate"
)


@pytest.fixture(scope="module")
def system():
    table = generate_lineitem(
        LineitemConfig(table_size=200_000, num_groups=1000, seed=0)
    )
    system = AquaSystem(
        space_budget=10_000, rng=np.random.default_rng(1), cache=False
    )
    system.register_table("lineitem", table, grouping_columns=GROUPING_COLUMNS)
    return system


def median_ms(fn, repeats=7) -> float:
    fn()  # warm-up
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * float(np.median(samples))


def test_repairing_half_the_groups_costs_at_most_two_exact_runs(system):
    policy = GuardPolicy(max_relative_halfwidth=0.6, max_repair_fraction=1.0)
    repaired = system.answer(QG3, guard=policy).provenance_counts["repaired"]
    assert 400 <= repaired <= 700
    guarded = median_ms(lambda: system.answer(QG3, guard=policy))
    exact = median_ms(lambda: system.exact(QG3))
    assert guarded <= 2.0 * exact, (guarded, exact)


def test_a_one_group_repair_scan_costs_at_most_one_and_a_half_tree_scans(
    system,
):
    policy = GuardPolicy(max_relative_halfwidth=1.6, max_repair_fraction=1.0)
    answer = system.answer(QG3, guard=policy)
    (key,) = [
        key for key, tag in answer.guard.provenance.items() if tag == "repaired"
    ]
    query = parse_query(QG3)
    first, second, third = (
        Comparison.of(Col(column), "=", value)
        for column, value in zip(query.group_by, key)
    )
    tree = replace(query, where=And(query.where, And(first, And(second, third))))
    assert system.exact(tree).num_rows == 1

    def repair():
        rows = system._group_rows(query, [key])
        return system._exact_with_zero_errors(query, rows)

    assert repair().num_rows == 1
    scan = median_ms(repair)
    tree_scan = median_ms(lambda: system.exact(tree))
    assert scan <= 1.5 * tree_scan, (scan, tree_scan)
