"""One membership pass per grouping: every sample is counted, allocated
and drawn from the same per-group row lists.

The reference is the two-pass recipe -- ``group_counts`` feeding the
strategy, then ``StratifiedSample.build`` -- run on an RNG seeded like the
system's and consumed in the same order.  Every path that builds a sample
must reproduce it exactly, and must read the base once per grouping.
"""

import numpy as np
import pytest

import repro.engine.groupby
from repro.aqua import AquaSystem, ParallelConfig
from repro.aqua.portfolio import SynopsisSpec
from repro.core import Congress, House, Senate
from repro.engine import Column, ColumnType, Schema, Table
from repro.experiments.harness import Testbed, standard_strategies
from repro.sampling import StratifiedSample, group_counts
from repro.synthetic.tpcd import GROUPING_COLUMNS, LineitemConfig

SEED = 5
BUDGET = 300
PARALLEL = [False, ParallelConfig(max_workers=4, min_partition_rows=1)]


def _table(key_type, n=4000, seed=11):
    rng = np.random.default_rng(seed)
    g = rng.choice([3, -1, 7, 20], size=n, p=[0.6, 0.25, 0.1, 0.05])
    h = rng.choice([2, 0, 9], size=n, p=[0.7, 0.2, 0.1])
    if key_type == ColumnType.STR:
        g, h = g.astype(str), h.astype(str)
    schema = Schema(
        [
            Column("g", key_type, "grouping"),
            Column("h", key_type, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table(schema, {"g": g, "h": h, "v": rng.exponential(5.0, size=n)})


def _two_pass(table, grouping, strategy, budget, rng):
    grouping = tuple(grouping)
    allocation = strategy.allocate(group_counts(table, grouping), grouping, budget)
    return StratifiedSample.build(table, grouping, allocation.rounded(), rng)


def _assert_same(sample, reference):
    assert list(sample.strata) == list(reference.strata)
    for key, stratum in reference.strata.items():
        other = sample.strata[key]
        assert other.population == stratum.population
        assert np.array_equal(other.row_indices, stratum.row_indices)


@pytest.mark.parametrize("parallel", PARALLEL, ids=["serial", "parallel"])
@pytest.mark.parametrize(
    "key_type", [ColumnType.INT, ColumnType.STR], ids=["int", "str"]
)
def test_system_samples_equal_the_two_pass_recipe(key_type, parallel):
    table = _table(key_type)
    system = AquaSystem(
        space_budget=BUDGET,
        rng=np.random.default_rng(SEED),
        parallel=parallel,
    )
    reference_rng = np.random.default_rng(SEED)
    system.register_table("t", table)
    _assert_same(
        system.synopsis("t").sample,
        _two_pass(table, ("g", "h"), Congress(), BUDGET, reference_rng),
    )

    default = system.build_portfolio("t")
    subset = system.build_portfolio(
        "t",
        [
            SynopsisSpec("full", 200, House()),
            SynopsisSpec("sub", 100, Senate(), grouping_columns=("g",)),
            SynopsisSpec("again", 150, Congress()),
        ],
    )
    for portfolio in (default, subset):
        for member in portfolio.members.values():
            spec = member.spec
            reference = _two_pass(
                table,
                spec.grouping_columns or ("g", "h"),
                spec.allocation,
                spec.budget,
                reference_rng,
            )
            _assert_same(member.synopsis.sample, reference)


def test_testbed_samples_equal_the_two_pass_recipe():
    config = LineitemConfig(table_size=6000, num_groups=27, seed=2)
    bed = Testbed.create(config, 0.05)
    table = bed.table
    rng = np.random.default_rng(config.seed + 1)
    budget = int(round(0.05 * table.num_rows))
    for name, strategy in standard_strategies().items():
        reference = _two_pass(table, GROUPING_COLUMNS, strategy, budget, rng)
        _assert_same(bed.samples[name], reference)


class TestOnePass:
    """Rows handed to ``group_ids_for``: the base once per grouping."""

    @pytest.fixture
    def rows_grouped(self, monkeypatch):
        seen = [0]
        original = repro.engine.groupby.group_ids_for

        def counting(table, *args, **kwargs):
            seen[0] += table.num_rows
            return original(table, *args, **kwargs)

        monkeypatch.setattr(repro.engine.groupby, "group_ids_for", counting)
        return seen

    def test_build_and_default_portfolio_read_the_base_once(
        self, rows_grouped
    ):
        table = _table(ColumnType.STR)
        system = AquaSystem(
            space_budget=BUDGET, rng=np.random.default_rng(SEED)
        )
        system.register_table("t", table)
        assert rows_grouped[0] == table.num_rows
        rows_grouped[0] = 0
        system.build_portfolio("t")
        assert len(system.portfolio("t").members) == 3
        assert rows_grouped[0] == table.num_rows

    def test_testbed_reads_the_base_once(self, rows_grouped):
        config = LineitemConfig(table_size=6000, num_groups=27, seed=2)
        bed = Testbed.create(config, 0.05)
        assert rows_grouped[0] == bed.table.num_rows
