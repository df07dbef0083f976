"""Single inserts, loaded at whatever read comes next, keep the Congress
probabilities (seeded, statistical).

``CongressMaintainer.insert`` only buffers its row; the next read
(``snapshot``, ``cube``, ``current_probability``, ``settle_all``,
``insert_table``) loads the buffered rows as one table.  Replicated runs
insert the skewed stream of ``test_inclusion_statistical`` one row at a
time, each replication reading the maintainer at its own random points, so
the loads cut the stream differently every time.  Afterwards:

* each group's sample size is ``Binomial(n_g, p_g)`` in the mean, with
  ``p_g`` from the exact counts of the whole stream;
* two fixed rows of one group are in the sample together at ``p_g ** 2``;
* two fixed rows of two groups are in it together at ``p_i * p_j``.

Every frequency must lie within four standard errors of its expectation.
"""

import numpy as np
import pytest

from repro.maintenance import CongressMaintainer
from test_batched_load_statistical import assert_binomial_mean, held_values
from test_inclusion_statistical import (
    BUDGET,
    GROUPING,
    SCHEMA,
    exact_probabilities,
    skewed_stream,
)

pytestmark = pytest.mark.statistical

REPLICATIONS = 400
READ_SHARE = 0.01  # chance that a read follows an insert


def rows_of(table, key):
    """The ``v`` values (row names) of group ``key``'s rows, in row order."""
    in_group = np.ones(table.num_rows, dtype=bool)
    for name, value in zip(GROUPING, key):
        in_group &= table.column(name) == value
    return table.column("v")[in_group]


@pytest.fixture(scope="module")
def table():
    return skewed_stream()


@pytest.fixture(scope="module")
def exact(table):
    return exact_probabilities(table)


@pytest.fixture(scope="module")
def tracked(table, exact):
    """Three rows: two of the largest group whose probability is in
    (0.1, 0.9), and one of the next such group."""
    finest, probabilities = exact
    moderate = sorted(
        (key for key, p in probabilities.items() if 0.1 < p < 0.9),
        key=finest.get,
        reverse=True,
    )
    first, second = moderate[:2]
    big = rows_of(table, first)
    return (
        (probabilities[first], probabilities[second]),
        (first, big[0]),
        (first, big[-1]),
        (second, rows_of(table, second)[0]),
    )


@pytest.fixture(scope="module")
def runs(table, tracked):
    """Per replication: every group's sample size and whether each tracked
    row was held."""
    __, *rows = tracked
    stream = list(table.iter_rows())
    sizes, held = [], []
    for replication in range(REPLICATIONS):
        rng = np.random.default_rng(replication)
        maintainer = CongressMaintainer(SCHEMA, GROUPING, BUDGET, rng)
        reads = np.random.default_rng(10_000 + replication).random(len(stream))
        for row, read in zip(stream, reads.tolist()):
            maintainer.insert(row)
            if read < READ_SHARE / 2:
                maintainer.current_probability(tuple(row[: len(GROUPING)]))
            elif read < READ_SHARE:
                maintainer.cube
        snapshot = maintainer.snapshot()
        sizes.append(snapshot.sample_sizes())
        values = held_values(snapshot)
        held.append(
            [value in values.get(key, np.empty(0)) for key, value in rows]
        )
    return sizes, np.array(held)


class TestDrainedInserts:
    def test_group_sizes_are_binomial_in_the_mean(self, exact, runs):
        finest, probabilities = exact
        sizes, __ = runs
        for key, n_g in finest.items():
            mean = np.mean([held.get(key, 0) for held in sizes])
            assert_binomial_mean(
                mean, n_g, probabilities[key], REPLICATIONS, key
            )

    def test_each_tracked_row_is_kept_at_its_group_probability(
        self, tracked, runs
    ):
        (p_first, p_second), *__ = tracked
        __, held = runs
        for column, p in zip(held.T, (p_first, p_first, p_second)):
            assert_binomial_mean(column.mean(), 1, p, REPLICATIONS, "marginal")

    def test_two_rows_of_one_group_are_independent(self, tracked, runs):
        (p_first, __), *__ = tracked
        __, held = runs
        joint = (held[:, 0] & held[:, 1]).mean()
        assert_binomial_mean(joint, 1, p_first**2, REPLICATIONS, "joint")

    def test_rows_of_two_groups_are_independent(self, tracked, runs):
        (p_first, p_second), *__ = tracked
        __, held = runs
        joint = (held[:, 0] & held[:, 2]).mean()
        assert_binomial_mean(
            joint, 1, p_first * p_second, REPLICATIONS, "joint"
        )
