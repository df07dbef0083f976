"""The plain LRU store behind the roll-up index and portfolio resolutions.

Runs the shared contract (``tests/lru_contract.py``) on an unprefixed
:class:`~repro.aqua.cache.LRUCache`, and checks that both tiers keep
their entries in one.
"""

import numpy as np

from repro.aqua import AquaSystem
from repro.aqua.cache import LRUCache
from repro.aqua.reuse import RollupIndex
from repro.synthetic.tpcd import LineitemConfig, generate_lineitem
from tests.lru_contract import LRUContract


class TestPlainStore(LRUContract):
    def make(self, capacity, metrics=None):
        return LRUCache(capacity, metrics)


def test_rollup_index_and_portfolio_store_entries_in_an_lru():
    assert isinstance(RollupIndex(capacity=2)._entries, LRUCache)
    system = AquaSystem(space_budget=400, rng=np.random.default_rng(3))
    system.register_table(
        "lineitem",
        generate_lineitem(LineitemConfig(table_size=4000, seed=3)),
        ["l_returnflag", "l_linestatus"],
        build=False,
    )
    system.build_portfolio("lineitem")
    sql = (
        "SELECT l_returnflag, SUM(l_quantity) AS s FROM lineitem "
        "GROUP BY l_returnflag"
    )
    system.answer(sql, max_rel_error=0.5)
    system.answer(sql, max_rel_error=0.5)
    resolutions = system.portfolio("lineitem")._resolutions
    assert isinstance(resolutions, LRUCache)
    assert (resolutions.stats.hits, resolutions.stats.misses) == (1, 1)
