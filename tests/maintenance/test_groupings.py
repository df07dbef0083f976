"""Every allocation is maintained as Eq. 8 over its own groupings.

``maintainer_for`` hands an allocation's ``groupings(G)`` to the one Eq. 8
maintainer.  After loading a table, each group's expected sample size
``n_g * p_g`` must be the allocation's own pre-scaling target, capped at
``n_g``, as the allocation code in ``repro.core`` (Eq. 4-5) works it out
independently of the cube.
"""

import numpy as np
import pytest

from repro import AquaSystem
from repro.core import (
    BasicCongress,
    Congress,
    GroupingCriterion,
    House,
    MultiCriteriaCongress,
    Senate,
)
from repro.maintenance import maintainer_for
from repro.sampling.groups import group_counts
from repro.synthetic import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

BUDGET = 400

STRATEGIES = [
    House(),
    Senate(),
    BasicCongress(),
    Congress(),
    Senate(["l_returnflag"]),
    BasicCongress(["l_linestatus", "l_shipdate"]),
    Congress([(), ("l_returnflag",), ("l_shipdate", "l_linestatus")]),
]

RESTRICTED = STRATEGIES[4:]


def ids(strategies):
    return [strategy.name for strategy in strategies]


@pytest.fixture(scope="module")
def table():
    return generate_lineitem(
        LineitemConfig(table_size=20_000, num_groups=125, group_skew=1.0, seed=5)
    )


@pytest.mark.parametrize("strategy", STRATEGIES, ids=ids(STRATEGIES))
def test_expected_sizes_are_the_allocations_pre_scaling(strategy, table):
    maintainer = maintainer_for(
        strategy, table.schema, GROUPING_COLUMNS, BUDGET,
        np.random.default_rng(0),
    )
    maintainer.insert_table(table)
    counts = group_counts(table, GROUPING_COLUMNS)
    target = strategy.allocate(counts, GROUPING_COLUMNS, BUDGET).pre_scaling
    assert maintainer.cube.finest_counts() == counts
    for key, n_g in counts.items():
        expected = min(n_g, target[key])
        got = n_g * maintainer.current_probability(key)
        assert got == pytest.approx(expected, rel=1e-12, abs=0), key


def test_names_stand_for_the_default_allocations(table):
    for name, strategy in [
        ("house", House()),
        ("senate", Senate()),
        ("basic_congress", BasicCongress()),
        ("congress", Congress()),
    ]:
        maintainer = maintainer_for(
            name, table.schema, GROUPING_COLUMNS, BUDGET,
            np.random.default_rng(0),
        )
        assert maintainer.cube.groupings == strategy.groupings(GROUPING_COLUMNS)


def test_an_allocation_without_groupings_has_no_maintainer(table):
    strategy = MultiCriteriaCongress([GroupingCriterion(("l_returnflag",))])
    with pytest.raises(ValueError, match="no maintainer for strategy"):
        maintainer_for(strategy, table.schema, GROUPING_COLUMNS, BUDGET)
    with pytest.raises(ValueError, match="no maintainer for strategy 'bogus'"):
        maintainer_for("bogus", table.schema, GROUPING_COLUMNS, BUDGET)


def test_groupings_name_columns_of_g():
    with pytest.raises(ValueError, match="not in grouping"):
        Senate(["nope"]).groupings(GROUPING_COLUMNS)
    with pytest.raises(ValueError, match="not in"):
        Congress([("nope",)]).groupings(GROUPING_COLUMNS)


@pytest.mark.parametrize("strategy", RESTRICTED, ids=ids(RESTRICTED))
def test_a_restricted_allocation_is_maintained(strategy, table):
    system = AquaSystem(
        space_budget=BUDGET,
        allocation_strategy=strategy,
        rng=np.random.default_rng(1),
    )
    system.register_table(
        "lineitem", table.slice(0, 5000), grouping_columns=GROUPING_COLUMNS
    )
    system.enable_maintenance("lineitem")
    system.insert_many("lineitem", list(table.slice(5000, 5300).iter_rows()))
    synopsis = system.refresh_synopsis("lineitem")
    assert synopsis.sample.total_population == 5300
    assert 0 < synopsis.sample_size <= BUDGET
    health = system.health("lineitem")
    assert health.maintained and health.maintainer_inserts == 5300
    assert health.inserts_since_refresh == 0
    assert system.answer(
        "select l_returnflag, sum(l_quantity) s from lineitem "
        "group by l_returnflag"
    ).result.num_rows > 0
