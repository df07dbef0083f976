"""Section 6: maintenance throughput and validity under streaming inserts.

Not a paper table -- the paper reports no maintenance timings -- but
DESIGN.md's MAINT experiment: we measure per-insert cost of each maintainer
and check that a maintained Congress sample answers Q_g2-style queries as
well as one rebuilt from scratch after a distribution shift.
"""

import numpy as np
import pytest

from repro.core import Congress, allocate_from_table
from repro.experiments import format_mapping_table
from repro.maintenance import maintainer_for, subsample_to_budget
from repro.metrics import groupby_error
from repro.sampling import StratifiedSample
from repro.synthetic import LineitemConfig, generate_lineitem

BUDGET = 2000
STRATEGIES = ("house", "senate", "basic_congress", "congress")


@pytest.fixture(scope="module")
def stream_table():
    return generate_lineitem(
        LineitemConfig(table_size=40_000, num_groups=125, group_skew=1.0, seed=2)
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_maintainer_throughput(benchmark, stream_table, strategy):
    rows = list(stream_table.head(20_000).iter_rows())
    rng = np.random.default_rng(0)

    def run():
        maintainer = maintainer_for(
            strategy, stream_table.schema,
            ["l_returnflag", "l_linestatus", "l_shipdate"], BUDGET, rng,
        )
        maintainer.insert_many(rows)
        # Congress buffers single inserts and loads them at this read
        return maintainer.snapshot()

    snapshot = benchmark.pedantic(run, rounds=3, iterations=1)
    assert snapshot.total_sample_size > 0
    assert sum(snapshot.populations.values()) == len(rows)


def test_maintained_vs_rebuilt_accuracy(benchmark, stream_table, save_result):
    """After streaming the whole table, the maintained Congress sample
    should answer group-by queries about as well as a from-scratch one."""
    grouping = ["l_returnflag", "l_linestatus", "l_shipdate"]
    rng = np.random.default_rng(1)

    maintainer = maintainer_for(
        "congress", stream_table.schema, grouping, BUDGET, rng
    )
    maintainer.insert_table(stream_table)
    maintained = subsample_to_budget(maintainer.snapshot(), BUDGET, rng)
    maintained_sample = maintained.to_stratified()

    allocation = allocate_from_table(Congress(), stream_table, grouping, BUDGET)
    rebuilt_sample = StratifiedSample.build(
        stream_table, grouping, allocation.rounded(), rng=rng
    )

    from repro.engine import Catalog, execute
    from repro.rewrite import Integrated
    from repro.synthetic import qg2

    catalog = Catalog()
    catalog.register("lineitem", stream_table)
    query = qg2()
    exact = execute(query.query, catalog)

    def answer(sample, base_name):
        rewrite = Integrated()
        synopsis = rewrite.install(sample, base_name, catalog, replace=True)
        plan = rewrite.plan(
            query.query.with_from(base_name), synopsis
        )
        return plan.execute(catalog)

    # The maintained sample's base "table" is its own rows; it answers
    # queries against the synthetic name below.
    catalog.register("lineitem_m", maintained_sample.base_table, replace=True)
    approx_maintained = benchmark(
        lambda: answer(maintained_sample, "lineitem_m")
    )
    approx_rebuilt = answer(rebuilt_sample, "lineitem")

    keys = list(query.query.group_by)
    err_maintained = groupby_error(exact, approx_maintained, keys, "sum_qty")
    err_rebuilt = groupby_error(exact, approx_rebuilt, keys, "sum_qty")

    table = format_mapping_table(
        "sample",
        {
            "maintained(one-pass)": {"eps_l1": err_maintained.eps_l1,
                                     "eps_inf": err_maintained.eps_inf},
            "rebuilt(two-pass)": {"eps_l1": err_rebuilt.eps_l1,
                                  "eps_inf": err_rebuilt.eps_inf},
        },
        title="MAINT: maintained vs rebuilt Congress sample, Qg2 errors (%)",
    )
    save_result("maintenance_accuracy", table)

    assert not err_maintained.missing_groups
    # The maintained sample should be within ~3x of the rebuilt sample
    # (identical in expectation; both are noisy at this budget).
    assert err_maintained.eps_l1 < max(3 * err_rebuilt.eps_l1, 10.0)
