"""Shared experiment machinery (Section 7.1's testbed).

Builds the skewed ``lineitem`` table, the four allocation strategies'
samples, executes queries through a chosen rewrite strategy, and scores
answers with the paper's error metric ("the average of the percentage
errors for all the groups").

Scaling: the paper runs at T = 1M tuples.  The default here is 200K so the
full suite finishes quickly; set the environment variable ``REPRO_SCALE=1.0``
(multiplier on 1M) or pass ``table_size`` explicitly to reproduce at paper
scale.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..core.allocation import AllocationStrategy, build_sample
from ..core.basic_congress import BasicCongress
from ..core.congress import Congress
from ..core.house import House
from ..core.senate import Senate
from ..engine.catalog import Catalog
from ..engine.executor import execute
from ..engine.table import Table
from ..metrics.groupby_error import GroupByError, groupby_error
from ..obs import Telemetry
from ..rewrite.base import RewriteStrategy
from ..rewrite.integrated import Integrated
from ..sampling.groups import group_members
from ..sampling.stratified import StratifiedSample
from ..synthetic.queries import QueryClass
from ..synthetic.tpcd import GROUPING_COLUMNS, LineitemConfig, generate_lineitem

__all__ = [
    "default_table_size",
    "standard_strategies",
    "Testbed",
    "time_plan",
]

PAPER_TABLE_SIZE = 1_000_000
DEFAULT_SCALE = 0.2


def default_table_size() -> int:
    """Experiment table size: ``REPRO_SCALE`` (default 0.2) times 1M."""
    scale = float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))
    if scale <= 0:
        raise ValueError(f"REPRO_SCALE must be > 0, got {scale}")
    return max(1000, int(PAPER_TABLE_SIZE * scale))


def standard_strategies() -> Dict[str, AllocationStrategy]:
    """The four allocation schemes of Section 7, under their paper names.

    Senate is configured for the grouping
    ``{l_returnflag, l_linestatus, l_shipdate}`` exactly as Section 7.1.1
    specifies -- which is the full grouping set, so the default target
    applies.
    """
    return {
        "house": House(),
        "senate": Senate(),
        "basic_congress": BasicCongress(),
        "congress": Congress(),
    }


@dataclass
class Testbed:
    """A generated lineitem table plus per-strategy samples.

    (``__test__`` is disabled so pytest does not mistake this for a test
    class when experiment code is imported from the test suite.)

    Attributes:
        config: the data generation parameters used.
        table: the base relation (registered as ``lineitem``).
        catalog: catalog holding the base table (samples are installed on
            demand by :meth:`install`).
        samples: per-strategy stratified samples.
        telemetry: optional tracing/metrics bundle; when enabled, sample
            builds and every exact/approximate execution are traced and
            recorded (``testbed_build_seconds``, ``testbed_query_seconds``,
            ``testbed_query_error_pct``).
    """

    __test__ = False  # not a pytest test class

    config: LineitemConfig
    table: Table
    catalog: Catalog
    samples: Dict[str, StratifiedSample] = field(default_factory=dict)
    telemetry: Telemetry = field(default_factory=Telemetry.disabled)

    @classmethod
    def create(
        cls,
        config: LineitemConfig,
        sample_fraction: float,
        strategies: Optional[Mapping[str, AllocationStrategy]] = None,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "Testbed":
        """Generate data and draw one sample per allocation strategy."""
        if not 0 < sample_fraction <= 1:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        rng = rng if rng is not None else np.random.default_rng(config.seed + 1)
        telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )
        with telemetry.tracer.span("testbed_generate"):
            table = generate_lineitem(config)
        catalog = Catalog()
        catalog.register("lineitem", table)
        budget = int(round(sample_fraction * table.num_rows))
        build_seconds = telemetry.metrics.histogram(
            "testbed_build_seconds",
            "Wall time to allocate and draw one strategy's sample.",
            ("strategy",),
        )
        # One membership pass serves every strategy's sample.
        members = group_members(table, GROUPING_COLUMNS)
        samples: Dict[str, StratifiedSample] = {}
        for name, strategy in (strategies or standard_strategies()).items():
            start = time.perf_counter()
            with telemetry.tracer.span("testbed_build", strategy=name):
                samples[name] = build_sample(
                    strategy,
                    table,
                    GROUPING_COLUMNS,
                    budget,
                    rng=rng,
                    members=members,
                )
            build_seconds.observe(
                time.perf_counter() - start, strategy=name
            )
        return cls(
            config=config,
            table=table,
            catalog=catalog,
            samples=samples,
            telemetry=telemetry,
        )

    def _observe_query(self, kind: str, strategy: str, seconds: float) -> None:
        self.telemetry.metrics.histogram(
            "testbed_query_seconds",
            "Per-query execution latency on the experiments testbed.",
            ("strategy", "kind"),
        ).observe(seconds, strategy=strategy, kind=kind)

    def exact(self, query: QueryClass) -> Table:
        start = time.perf_counter()
        with self.telemetry.tracer.span("testbed_exact"):
            result = execute(query.query, self.catalog)
        self._observe_query("exact", "none", time.perf_counter() - start)
        return result

    def approximate(
        self,
        strategy_name: str,
        query: QueryClass,
        rewrite: Optional[RewriteStrategy] = None,
    ) -> Table:
        """Answer ``query`` from the named strategy's sample."""
        rewrite = rewrite or Integrated()
        sample = self.samples[strategy_name]
        start = time.perf_counter()
        with self.telemetry.tracer.span(
            "testbed_approximate", strategy=strategy_name
        ):
            synopsis = rewrite.install(
                sample, "lineitem", self.catalog, replace=True
            )
            plan = rewrite.plan(query.query, synopsis)
            result = plan.execute(
                self.catalog, tracer=self.telemetry.tracer
            )
        self._observe_query(
            "approx", strategy_name, time.perf_counter() - start
        )
        return result

    def query_error(
        self,
        strategy_name: str,
        query: QueryClass,
        rewrite: Optional[RewriteStrategy] = None,
    ) -> float:
        """The paper's error measure for one query and one sample.

        Average percentage error over all groups (and over the query's
        aggregate columns when it has several, as ``Q_g2`` does).
        """
        exact = self.exact(query)
        approx = self.approximate(strategy_name, query, rewrite)
        key_columns = list(query.query.group_by)
        value_columns = [agg.alias for agg in query.query.aggregates()]
        errors: List[GroupByError] = [
            groupby_error(exact, approx, key_columns, value_column)
            for value_column in value_columns
        ]
        error = float(np.mean([e.eps_l1 for e in errors]))
        self.telemetry.metrics.histogram(
            "testbed_query_error_pct",
            "The paper's mean percentage error per query.",
            ("strategy",),
            buckets=(0.5, 1, 2.5, 5, 10, 25, 50, 100, 250),
        ).observe(error, strategy=strategy_name)
        return error

    def install(
        self, strategy_name: str, rewrite: RewriteStrategy
    ):
        """Install a sample under a rewrite strategy; returns the synopsis."""
        sample = self.samples[strategy_name]
        return rewrite.install(sample, "lineitem", self.catalog, replace=True)


def time_plan(
    run: Callable[[], Table],
    repeats: int = 5,
    discard_first: bool = True,
) -> float:
    """Paper's timing protocol: run 5 times, average the last 4."""
    timings: List[float] = []
    for __ in range(repeats):
        start = time.perf_counter()
        run()
        timings.append(time.perf_counter() - start)
    if discard_first and len(timings) > 1:
        timings = timings[1:]
    return float(np.mean(timings))
