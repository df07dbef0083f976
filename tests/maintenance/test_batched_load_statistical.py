"""A batched Eq. 8 load and the one-draw scale-down keep the Congress
probabilities (seeded, statistical).

``CongressMaintainer.insert_table`` flips one coin per row at the group's
final probability instead of streaming the rows, and ``subsample_to_budget``
picks every group's survivors from one draw.  Over replicated runs on the
skewed stream of ``test_inclusion_statistical``:

* a pure load leaves each group's sample size ``Binomial(n_g, p_g)`` in the
  mean, with ``p_g`` from the exact counts;
* two fixed rows of one group are in the sample together at ``p_g ** 2``,
  which a draw that correlated rows of a group would break;
* a load onto rows inserted one at a time leaves those rows at the final
  ``p_g`` too;
* the scale-down keeps every member of a group it cuts with frequency
  ``target / size`` and never picks a member twice.

Every frequency must lie within four standard errors of its expectation.
"""

import numpy as np
import pytest

from repro.maintenance import (
    CongressMaintainer,
    MaintainedSample,
    subsample_to_budget,
)
from repro.sampling.rounding import largest_remainder_round
from test_inclusion_statistical import (
    BUDGET,
    GROUPING,
    SCHEMA,
    exact_probabilities,
    skewed_stream,
)

pytestmark = pytest.mark.statistical

REPLICATIONS = 400


def assert_binomial_mean(mean, n, p, replications, label):
    """``mean``, over ``replications`` draws of ``Binomial(n, p)``, is
    ``n * p`` within four standard errors."""
    if p == 1.0:
        assert mean == n, label
        return
    standard_error = np.sqrt(n * p * (1 - p) / replications)
    assert abs(mean - n * p) <= 4 * standard_error, (
        label, mean, n * p, standard_error,
    )


def held_values(snapshot):
    """Each group's sampled ``v`` values (``v`` is continuous, so it names
    a row)."""
    v = snapshot.rows.column("v")
    return {key: v[at] for key, at in snapshot.positions.items()}


@pytest.fixture(scope="module")
def table():
    return skewed_stream()


@pytest.fixture(scope="module")
def exact(table):
    return exact_probabilities(table)


@pytest.fixture(scope="module")
def pair(table, exact):
    """Two rows of the largest group whose probability is in (0.1, 0.9)."""
    finest, probabilities = exact
    key = max(
        (key for key, p in probabilities.items() if 0.1 < p < 0.9),
        key=finest.get,
    )
    in_group = np.ones(table.num_rows, dtype=bool)
    for name, value in zip(GROUPING, key):
        in_group &= table.column(name) == value
    first, second = np.flatnonzero(in_group)[[0, -1]]
    v = table.column("v")
    return key, probabilities[key], v[first], v[second]


@pytest.fixture(scope="module")
def pure_loads(table, pair):
    """Per replication: every group's sample size, and whether each row of
    the pair was held."""
    key, __, first, second = pair
    sizes, held = [], []
    for replication in range(REPLICATIONS):
        maintainer = CongressMaintainer(
            SCHEMA, GROUPING, BUDGET, np.random.default_rng(replication)
        )
        maintainer.insert_table(table)
        snapshot = maintainer.snapshot()
        sizes.append(snapshot.sample_sizes())
        values = held_values(snapshot).get(key, np.empty(0))
        held.append((first in values, second in values))
    return sizes, np.array(held)


class TestBatchedLoad:
    def test_group_sizes_are_binomial_in_the_mean(self, exact, pure_loads):
        finest, probabilities = exact
        sizes, __ = pure_loads
        for key, n_g in finest.items():
            mean = np.mean([held.get(key, 0) for held in sizes])
            assert_binomial_mean(
                mean, n_g, probabilities[key], REPLICATIONS, key
            )

    def test_two_rows_of_one_group_are_independent(self, pair, pure_loads):
        __, p_g, __, __ = pair
        __, held = pure_loads
        for row in held.T:
            assert_binomial_mean(row.mean(), 1, p_g, REPLICATIONS, "marginal")
        joint = held.all(axis=1).mean()
        assert_binomial_mean(joint, 1, p_g**2, REPLICATIONS, "joint")

    def test_a_load_thins_rows_inserted_one_at_a_time(self, table, exact):
        __, probabilities = exact
        half = table.num_rows // 2
        head, rest = table.slice(0, half), table.slice(half, table.num_rows)
        head_values = set(head.column("v").tolist())
        head_counts = {}
        for row in head.iter_rows():
            key = tuple(row[:len(GROUPING)])
            head_counts[key] = head_counts.get(key, 0) + 1
        replications = REPLICATIONS // 2
        kept = {key: [] for key in head_counts}
        for replication in range(replications):
            maintainer = CongressMaintainer(
                SCHEMA, GROUPING, BUDGET, np.random.default_rng(replication)
            )
            maintainer.insert_many(head.iter_rows())
            maintainer.insert_table(rest)
            held = held_values(maintainer.snapshot())
            for key, counts in kept.items():
                values = held.get(key, np.empty(0)).tolist()
                counts.append(sum(value in head_values for value in values))
        for key, n_head in head_counts.items():
            assert_binomial_mean(
                np.mean(kept[key]), n_head, probabilities[key], replications, key
            )


class TestOneDrawScaleDown:
    def test_every_member_of_a_cut_group_is_kept_at_target_over_size(self):
        sizes = {(0,): 40, (1,): 25, (2,): 10, (3,): 3}
        total = sum(sizes.values())
        rows = skewed_stream().slice(0, total)
        positions, cursor = {}, 0
        for key, size in sizes.items():
            positions[key] = np.arange(cursor, cursor + size, dtype=np.int64)
            cursor += size
        snapshot = MaintainedSample(
            ("a",), rows, tuple(sizes), np.arange(total),
            np.fromiter(sizes.values(), np.int64), dict(sizes),
        )
        budget = 39
        targets = largest_remainder_round(
            {key: size * budget / total for key, size in sizes.items()},
            total=budget,
            caps=sizes,
        )
        kept = {key: np.zeros(size) for key, size in sizes.items()}
        rng = np.random.default_rng(7)
        for __ in range(REPLICATIONS):
            scaled = subsample_to_budget(snapshot, budget, rng)
            for key, at in scaled.positions.items():
                assert len(set(at.tolist())) == len(at) == targets[key], key
                kept[key][at - positions[key][0]] += 1
        for key, size in sizes.items():
            for times in kept[key]:
                assert_binomial_mean(
                    times / REPLICATIONS, 1, targets[key] / size, REPLICATIONS, key
                )
