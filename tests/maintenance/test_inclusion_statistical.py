"""Eq. 8 maintenance keeps every tuple at its Congress probability
(seeded, statistical).

Replicated runs of a skewed three-column stream -- the first half loaded
with ``insert_table``, the rest inserted one row at a time, with a
``snapshot()`` half way through the single inserts -- must leave each
group's sample size ``Binomial(n_g, p_g)``: its mean over the replications
lies within four standard errors of ``n_g * p_g``, with ``p_g`` worked out
from the exact group counts of the whole stream, not from the maintainer's
cube.  Scaling down to a budget must hit the largest-remainder targets
exactly.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from repro.engine import Column, ColumnType, Schema, Table
from repro.maintenance import CongressMaintainer, subsample_to_budget
from repro.sampling.rounding import largest_remainder_round

pytestmark = pytest.mark.statistical

REPLICATIONS = 300
ROWS = 3000
BUDGET = 120
GROUPING = ("a", "b", "c")
SCHEMA = Schema(
    [Column(name, ColumnType.INT, "grouping") for name in GROUPING]
    + [Column("v", ColumnType.FLOAT, "aggregate")]
)


def skewed_stream(seed=2026):
    rng = np.random.default_rng(seed)
    a = rng.choice(4, size=ROWS, p=[0.7, 0.2, 0.07, 0.03])
    b = rng.choice(3, size=ROWS, p=[0.85, 0.1, 0.05])
    c = rng.choice(2, size=ROWS, p=[0.6, 0.4])
    v = rng.exponential(5.0, size=ROWS)
    return Table.from_columns(SCHEMA, a=a, b=b, c=c, v=v)


def exact_probabilities(table):
    """Eq. 8 from exact counts: ``min(1, max_T Y / (m_T * n_{g,T}))``."""
    keys = list(zip(*(table.column(name).tolist() for name in GROUPING)))
    finest = Counter(keys)
    best = dict.fromkeys(finest, 0.0)
    for size in range(len(GROUPING) + 1):
        for subset in combinations(range(len(GROUPING)), size):
            counts = Counter(tuple(key[i] for i in subset) for key in keys)
            for key in finest:
                share = BUDGET / (len(counts) * counts[tuple(key[i] for i in subset)])
                best[key] = max(best[key], share)
    return finest, {key: min(1.0, p) for key, p in best.items()}


@pytest.fixture(scope="module")
def campaign():
    table = skewed_stream()
    half = table.num_rows // 2
    tail = list(table.slice(half, table.num_rows).iter_rows())
    finest, probabilities = exact_probabilities(table)
    sizes = {key: [] for key in finest}
    scaled = []
    for replication in range(REPLICATIONS):
        rng = np.random.default_rng(replication)
        maintainer = CongressMaintainer(SCHEMA, GROUPING, BUDGET, rng)
        maintainer.insert_table(table.slice(0, half))
        for i, row in enumerate(tail):
            maintainer.insert(row)
            if i == len(tail) // 2:
                maintainer.snapshot()
        snapshot = maintainer.snapshot()
        held = snapshot.sample_sizes()
        for key, replicated in sizes.items():
            replicated.append(held.get(key, 0))
        scaled.append((snapshot, subsample_to_budget(snapshot, BUDGET, rng)))
    return finest, probabilities, sizes, scaled


class TestEquation8Inclusion:
    def test_populations_are_exact(self, campaign):
        finest, __, __, scaled = campaign
        assert all(snapshot.populations == finest for snapshot, __ in scaled)

    def test_group_sizes_are_binomial_in_the_mean(self, campaign):
        finest, probabilities, sizes, __ = campaign
        for key, n_g in finest.items():
            p_g = probabilities[key]
            expected = n_g * p_g
            standard_error = np.sqrt(n_g * p_g * (1 - p_g) / REPLICATIONS)
            mean = float(np.mean(sizes[key]))
            if p_g == 1.0:
                assert mean == n_g, key
            else:
                assert abs(mean - expected) <= 4 * standard_error, (
                    key, mean, expected, standard_error,
                )

    def test_scale_down_hits_largest_remainder_targets(self, campaign):
        __, __, __, scaled = campaign
        for snapshot, kept in scaled:
            sizes = snapshot.sample_sizes()
            total = sum(sizes.values())
            if total <= BUDGET:
                assert kept is snapshot
                continue
            factor = BUDGET / total
            targets = largest_remainder_round(
                {key: size * factor for key, size in sizes.items()},
                total=BUDGET,
                caps=sizes,
            )
            assert kept.sample_sizes() == {
                key: size for key, size in targets.items() if size
            }
            assert kept.total_sample_size == BUDGET
