"""Construction throughput: the three one-pass paths of Section 6.

Times (a) membership-pass construction (one pass lists each finest
group's rows; the counts, the allocation and the stratified draw all come
from those lists), (b) one-pass streaming construction via the
maintainers, and (c) the Section 4.6 top-up construction, all building a
Congress sample of the same budget from the same table.
"""

import numpy as np
import pytest

from repro.core import Congress, build_sample
from repro.experiments import format_mapping_table
from repro.maintenance import (
    CountDataCube,
    construct_congress_topup,
    construct_from_cube,
    construct_one_pass,
)
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

BUDGET = 2000


@pytest.fixture(scope="module")
def table():
    return generate_lineitem(
        LineitemConfig(table_size=50_000, num_groups=125, group_skew=1.0, seed=3)
    )


def test_membership_pass_build(benchmark, table):
    rng = np.random.default_rng(0)
    sample = benchmark(
        lambda: build_sample(
            Congress(), table, list(GROUPING_COLUMNS), BUDGET, rng=rng
        )
    )
    assert sample.total_sample_size == BUDGET


def test_from_cube_build(benchmark, table):
    rng = np.random.default_rng(0)
    cube = CountDataCube.from_table(table, GROUPING_COLUMNS)
    sample = benchmark(
        lambda: construct_from_cube(Congress(), cube, table, BUDGET, rng)
    )
    assert sample.total_sample_size == BUDGET


def test_streaming_one_pass_build(benchmark, table):
    rng = np.random.default_rng(0)

    def run():
        return construct_one_pass(
            "congress", table, table.schema, list(GROUPING_COLUMNS),
            BUDGET, rng,
        )

    sample = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sample.total_sample_size <= BUDGET


def test_topup_build(benchmark, table, save_result):
    rng = np.random.default_rng(0)
    sample = benchmark.pedantic(
        lambda: construct_congress_topup(
            table, list(GROUPING_COLUMNS), BUDGET, rng
        ),
        rounds=3,
        iterations=1,
    )
    assert 0 < sample.total_sample_size <= BUDGET + len(sample.strata)
    save_result(
        "construction_sizes",
        format_mapping_table(
            "path",
            {
                "membership_pass": {"size": BUDGET},
                "topup": {"size": sample.total_sample_size},
            },
            title="Construction paths: sample sizes at the same budget",
        ),
    )
