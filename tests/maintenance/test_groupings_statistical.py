"""Eq. 8 over each allocation's groupings keeps every row at that
allocation's probability (seeded, statistical).

``maintainer_for`` maintains House, Senate, Basic Congress and Congress with
one algorithm: Eq. 8 over ``𝒯 = {∅}``, ``{G}``, ``{∅, G}`` and every
``T ⊆ G``.  The probabilities here come from the allocation code in
``repro.core`` (Eq. 4-5), not from the maintainer's cube: a row of group
``g`` is kept with ``p_g = min(n_g, pre_scaling_g) / n_g``.  Over replicated
runs on ``test_inclusion_statistical``'s skewed stream -- the first half
loaded with ``insert_table``, the rest inserted one row at a time --

* each group's sample size is ``Binomial(n_g, p_g)`` in the mean;
* two fixed rows of one group are in the sample together at ``p_g ** 2``;
* two fixed rows of two groups are in it together at ``p_i * p_j``.

Every frequency must lie within four standard errors of its expectation.
"""

import numpy as np
import pytest

from repro.core import BasicCongress, Congress, House, Senate
from repro.maintenance import maintainer_for
from repro.sampling.groups import group_counts
from test_batched_load_statistical import assert_binomial_mean, held_values
from test_inclusion_statistical import GROUPING, SCHEMA, skewed_stream

pytestmark = pytest.mark.statistical

REPLICATIONS = 400
#: every allocation keeps ten or more groups at 0.1 < p < 0.9 at this budget
BUDGET = 600
#: each name ``maintainer_for`` takes, and the allocation it stands for
STRATEGIES = {
    "house": House(),
    "senate": Senate(),
    "basic_congress": BasicCongress(),
    "congress": Congress(),
}


@pytest.fixture(scope="module")
def table():
    return skewed_stream()


def allocation_probabilities(strategy, table):
    """Each group's ``p_g`` from the allocation's pre-scaling targets."""
    counts = group_counts(table, GROUPING)
    targets = STRATEGIES[strategy].allocate(counts, GROUPING, BUDGET)
    return counts, {
        key: min(n_g, targets.pre_scaling[key]) / n_g
        for key, n_g in counts.items()
    }


def first_and_last_row(table, key):
    in_group = np.ones(table.num_rows, dtype=bool)
    for name, value in zip(GROUPING, key):
        in_group &= table.column(name) == value
    at = np.flatnonzero(in_group)
    v = table.column("v")
    return v[at[0]], v[at[-1]]


@pytest.fixture(scope="module", params=list(STRATEGIES))
def campaign(request, table):
    """Per replication of one allocation: every group's sample size, and
    whether each of three fixed rows was held (the first and last row of
    the largest group with 0.1 < p < 0.9, the first row of the next)."""
    strategy = request.param
    counts, probabilities = allocation_probabilities(strategy, table)
    big, other = sorted(
        (key for key, p in probabilities.items() if 0.1 < p < 0.9),
        key=counts.get,
        reverse=True,
    )[:2]
    rows = (*first_and_last_row(table, big), first_and_last_row(table, other)[0])
    half = table.num_rows // 2
    head = table.slice(0, half)
    tail = list(table.slice(half, table.num_rows).iter_rows())
    sizes, held = [], []
    for replication in range(REPLICATIONS):
        maintainer = maintainer_for(
            strategy, SCHEMA, GROUPING, BUDGET, np.random.default_rng(replication)
        )
        maintainer.insert_table(head)
        for row in tail:
            maintainer.insert(row)
        snapshot = maintainer.snapshot()
        sizes.append(snapshot.sample_sizes())
        values = held_values(snapshot)
        held.append(
            [
                row in values.get(key, ())
                for row, key in zip(rows, (big, big, other))
            ]
        )
    return counts, probabilities, (big, other), sizes, np.array(held)


class TestEveryAllocationIsEq8:
    def test_group_sizes_are_binomial_in_the_mean(self, campaign):
        counts, probabilities, __, sizes, __ = campaign
        for key, n_g in counts.items():
            mean = np.mean([held.get(key, 0) for held in sizes])
            assert_binomial_mean(
                mean, n_g, probabilities[key], REPLICATIONS, key
            )

    def test_two_rows_are_in_together_at_the_product(self, campaign):
        __, probabilities, (big, other), __, held = campaign
        p_big, p_other = probabilities[big], probabilities[other]
        for column, p in zip(held.T, (p_big, p_big, p_other)):
            assert_binomial_mean(column.mean(), 1, p, REPLICATIONS, "marginal")
        within = held[:, 0] & held[:, 1]
        across = held[:, 0] & held[:, 2]
        assert_binomial_mean(
            within.mean(), 1, p_big**2, REPLICATIONS, "within a group"
        )
        assert_binomial_mean(
            across.mean(), 1, p_big * p_other, REPLICATIONS, "across groups"
        )
