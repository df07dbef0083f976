"""The Aqua approximate-query-answering middleware (Section 2, Figure 1).

:class:`AquaSystem` sits "atop" the relational engine exactly as the paper's
Aqua sits atop a commercial DBMS:

1. the warehouse administrator registers base tables and a space budget;
2. Aqua precomputes sample synopses (by default congressional samples) and
   stores them as regular relations in the engine's catalog;
3. user SQL against the *base* table is rewritten to run against the
   synopsis relations, with aggregate scale-up and per-group error bounds
   (the ``sum_error`` column of Figure 2);
4. synopses are kept up to date under inserts via the Section 6 maintainers,
   without re-reading the base relation.

On top of the paper's pipeline sits a *guarded answering* layer
(:mod:`repro.aqua.guard`): :meth:`AquaSystem.answer` validates the synopsis,
checks staleness, and escalates per answer group -- synopsis answer, then
partial-exact repair of low-support/unbounded groups from the base table,
then a full exact fallback -- tagging every group with its provenance.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.allocation import AllocationStrategy
from ..core.congress import Congress
from ..engine.aggregates import Aggregate
from ..engine.catalog import Catalog, CatalogError
from ..engine.executor import ParallelConfig, ParallelExecutor
from ..engine.expressions import Col, Lit
from ..engine.groupby import align_rows, key_tuples
from ..engine.predicates import And, Comparison, InList, Or, Predicate
from ..engine.query import Projection, Query
from ..engine.render import render_query
from ..engine.schema import Column, ColumnType
from ..engine.sql import parse_query
from ..engine.table import Table
from ..errors import (
    AquaError,
    DeadlineExceeded,
    GuardViolationError,
    QueryTooDeepError,
    StaleSynopsisError,
    SynopsisCorruptError,
    SynopsisMissingError,
    TableNotRegisteredError,
)
from ..estimators.errors import (
    DEFAULT_CONFIDENCE,
    chebyshev_halfwidth,
    hoeffding_halfwidth_stratified_sum,
    relative_halfwidth,
)
from ..estimators.point import estimate, group_support
from ..obs import MetricsRegistry, QueryTrace, Telemetry, Tracer
from ..plan import (
    CostModel,
    canonicalize,
    canonicalize_query,
    execute_plan,
    lower_query,
    lower_rewritten,
    optimize as optimize_plan,
    render_plan,
)
from ..sampling.groups import GroupKey, finest_group_ids, make_key, project_key
from ..maintenance.base import SampleMaintainer
from ..maintenance.onepass import maintainer_for, subsample_to_budget
from ..rewrite.base import RewriteStrategy
from ..rewrite.nested_integrated import NestedIntegrated
from ..serve.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from ..sampling.stratified import StratifiedSample
from .cache import AnswerCache, CacheStats, LRUCache
from .guard import (
    PROVENANCE_COLUMN,
    PROVENANCE_EXACT,
    PROVENANCE_REPAIRED,
    PROVENANCE_ROLLUP,
    PROVENANCE_SYNOPSIS,
    GuardPolicy,
    GuardReport,
    RefreshPolicy,
    SynopsisHealth,
    observe_guard,
    validate_sample,
)
from .portfolio import (
    CostErrorModel,
    PortfolioChoice,
    SynopsisPortfolio,
    SynopsisSpec,
    default_portfolio_specs,
)
from .reuse import ReuseSnapshot, RollupAnswer, RollupIndex
from .synopsis import Synopsis
from .workload_log import QueryLog

__all__ = [
    "AnswerCache",
    "AquaSystem",
    "ApproximateAnswer",
    "AquaError",
    "CacheStats",
    "ComparisonReport",
    "CostErrorModel",
    "GuardPolicy",
    "GuardReport",
    "LRUCache",
    "ParallelConfig",
    "PortfolioChoice",
    "RefreshPolicy",
    "SynopsisHealth",
    "SynopsisPortfolio",
    "SynopsisSpec",
    "Telemetry",
]

_SCALED_AGGREGATES = ("sum", "count", "avg")


def promised_rel_error_by_alias(result: Table) -> Dict[str, float]:
    """Worst finite per-group relative half-width, per aggregate alias.

    Zero-valued and non-finite groups are skipped (their relative error is
    undefined); an alias absent from the returned dict made no finite
    promise at all.
    """
    promised: Dict[str, float] = {}
    for name in result.schema.names:
        if not name.endswith("_error"):
            continue
        alias = name[: -len("_error")]
        if alias not in result.schema:
            continue
        halfwidths = result.column(name)
        estimates = result.column(alias)
        worst = -1.0
        for i in range(result.num_rows):
            halfwidth = float(halfwidths[i])
            try:
                value = float(estimates[i])
            except (TypeError, ValueError):
                continue
            if not (math.isfinite(halfwidth) and math.isfinite(value)):
                continue
            if value == 0.0:
                continue
            worst = max(worst, halfwidth / abs(value))
        if worst >= 0.0:
            promised[alias] = worst
    return promised


@dataclass
class ApproximateAnswer:
    """An approximate answer with its provenance.

    Attributes:
        result: the answer table; each aggregate alias ``a`` is accompanied
            by an ``a_error`` column -- the half-width of the confidence
            interval at ``confidence`` (Chebyshev over the stratified
            variance estimate), mirroring Figure 4.  Guarded answers also
            carry a per-group provenance column
            (``synopsis`` / ``repaired`` / ``exact``).
        confidence: the confidence level of the error columns.
        synopsis: the synopsis used.
        elapsed_seconds: wall-clock execution time of the rewritten plan.
        guard: what the guard did (``None`` for unguarded answers).
        trace: the per-stage :class:`~repro.obs.QueryTrace` (``None`` when
            the system's tracer is disabled).
        trace_id: the event-log identity of this answer (``None`` when the
            event log is disabled); shared with metric exemplars, retained
            traces, and audit back-annotations.
        cache_hit: served from the answer cache without recomputation.
        cache_tier: which semantic reuse tier served this answer --
            ``"exact"`` (same canonical fingerprint and same rendered
            text), ``"canonical"`` (fingerprint hit reconciled across
            aliases/group order), ``"rollup"`` (merged from a finer cached
            entry's aggregate states), or ``None`` (computed fresh).
        reused_from: for roll-up answers, the source entry's provenance
            chain (table@version, allocation/rewrite strategy, the fine
            entry's GROUP BY, and any whole-strata slice applied), so
            provenance is never lossy.
        chosen_synopsis: the portfolio member that served this answer
            (``None`` when answered without a budget, i.e. off the primary
            synopsis).
        predicted_rel_error: the cost/error model's worst-group prediction
            for the chosen member (``None`` without a portfolio choice).
    """

    result: Table
    confidence: float
    synopsis: Synopsis
    elapsed_seconds: float
    guard: Optional[GuardReport] = None
    trace: Optional[QueryTrace] = None
    trace_id: Optional[str] = None
    cache_hit: bool = False
    cache_tier: Optional[str] = None
    reused_from: Optional[str] = None
    chosen_synopsis: Optional[str] = None
    predicted_rel_error: Optional[float] = None

    @property
    def provenance_counts(self) -> Dict[str, int]:
        """Answer groups per provenance tag (empty when unguarded)."""
        return self.guard.counts if self.guard is not None else {}

    @property
    def promised_rel_error(self) -> Optional[float]:
        """Worst promised relative error across aggregates and groups.

        The answer's actual promise (from the attached ``<alias>_error``
        columns), as opposed to the model's *prediction*; ``None`` when no
        aggregate made a finite promise.  Repaired/exact groups carry zero
        half-widths, so guard escalation tightens this value.
        """
        promised = promised_rel_error_by_alias(self.result)
        return max(promised.values()) if promised else None

    @property
    def total_seconds(self) -> float:
        """End-to-end answer time: the traced total when available,
        otherwise the plan execution time."""
        if self.trace is not None:
            return self.trace.total_seconds
        return self.elapsed_seconds


def _balanced(
    combine: Callable[[Predicate, Predicate], Predicate],
    terms: Sequence[Predicate],
) -> Predicate:
    """Fold ``terms`` with a binary connective into a balanced tree."""
    if len(terms) == 1:
        return terms[0]
    middle = len(terms) // 2
    return combine(
        _balanced(combine, terms[:middle]), _balanced(combine, terms[middle:])
    )


def _fmt_pct(value: float) -> str:
    """Render a percentage, degrading NaN/inf to ``n/a``."""
    return f"{value:.2f}%" if math.isfinite(value) else "n/a"


@dataclass(frozen=True)
class _CacheEntry:
    """An answer-cache value: the answer plus reconciliation metadata.

    Entries are keyed by the alias-insensitive canonical fingerprint, so
    a hit may come from a differently-spelled query.  ``sql`` (the rendered
    text the entry was stored under) distinguishes *exact* hits from
    *canonical* ones; ``aliases`` and ``group_by`` let a canonical hit be
    reconciled -- result columns renamed to the probe's aliases, rows
    re-sorted to the probe's GROUP BY order -- before serving.
    """

    answer: ApproximateAnswer
    sql: str
    aliases: Tuple[str, ...]
    group_by: Tuple[str, ...]


@dataclass
class ComparisonReport:
    """Side-by-side approximate vs. exact answer with error metrics."""

    approximate: ApproximateAnswer
    exact: Table
    exact_elapsed_seconds: float
    errors: Dict[str, "GroupByError"]  # per aggregate alias
    stale_inserts: int = 0

    @property
    def speedup(self) -> float:
        """Exact time over approximate time (>1 = approximation faster).

        Uses the *traced* end-to-end approximate total when the answer
        carries a trace -- the plan-execution time alone understates what
        the user actually waited for (parse, bounds, guard work).
        """
        approx_time = self.approximate.total_seconds
        if approx_time <= 0:
            return float("inf")
        return self.exact_elapsed_seconds / approx_time

    def describe(self) -> str:
        speedup = self.speedup
        speedup_text = f"{speedup:.1f}x" if math.isfinite(speedup) else "n/a"
        lines = [
            f"speedup: {speedup_text} "
            f"(exact {self.exact_elapsed_seconds * 1000:.1f} ms, "
            f"approx {self.approximate.total_seconds * 1000:.1f} ms)"
        ]
        trace = self.approximate.trace
        if trace is not None:
            stages = "; ".join(
                f"{name} {seconds * 1000:.2f} ms"
                for name, seconds in trace.stage_seconds().items()
            )
            if stages:
                lines.append(f"approx stages: {stages}")
        if self.stale_inserts:
            lines.append(
                f"note: synopsis was stale by {self.stale_inserts} inserts "
                "at answer time"
            )
        if self.approximate.cache_tier is not None:
            tier_line = (
                f"approx served from cache tier "
                f"{self.approximate.cache_tier}"
            )
            if self.approximate.reused_from:
                tier_line += f" (source: {self.approximate.reused_from})"
            lines.append(tier_line)
        for alias, error in self.errors.items():
            lines.append(
                f"{alias}: mean {_fmt_pct(error.eps_l1)}  "
                f"worst {_fmt_pct(error.eps_inf)}  "
                f"coverage {error.coverage:.0%}"
            )
        return "\n".join(lines)


@dataclass
class _TableState:
    table: Table
    grouping_columns: Tuple[str, ...]
    maintainer: Optional[SampleMaintainer] = None
    pending_rows: List[Tuple] = field(default_factory=list)
    inserts_since_refresh: int = 0
    rows_at_refresh: int = 0
    refresh_policy: Optional[RefreshPolicy] = None
    # Monotonic data version: advanced only by AquaSystem._bump_version,
    # on every insert, flush, synopsis or portfolio (re)build and
    # re-registration.  Every cache key embeds it, so any mutation
    # invalidates all prior cached answers and plans for this table.
    version: int = 0
    # Serializes mutation (insert, pending-row flush, synopsis install)
    # against concurrent serving workers; reentrant because a flush can
    # happen inside a locked refresh.
    lock: threading.RLock = field(default_factory=threading.RLock)


class AquaSystem:
    """Approximate query answering middleware over the in-memory engine."""

    def __init__(
        self,
        space_budget: int,
        allocation_strategy: Optional[AllocationStrategy] = None,
        rewrite_strategy: Optional[RewriteStrategy] = None,
        confidence: float = DEFAULT_CONFIDENCE,
        bound_method: str = "chebyshev",
        rng: Optional[np.random.Generator] = None,
        guard_policy: Union[GuardPolicy, bool, None] = None,
        telemetry: Union[Telemetry, bool, None] = None,
        parallel: Union[ParallelConfig, bool, None] = None,
        cache: Union[AnswerCache, int, bool, None] = None,
    ):
        """Args:
        space_budget: sample tuples per synopsis (the paper's ``X``).
        allocation_strategy: defaults to :class:`Congress`.
        rewrite_strategy: defaults to :class:`NestedIntegrated` (the
            paper's fastest strategy across most of the measured range).
        confidence: confidence level for error bounds (Aqua default 90%).
        bound_method: ``"chebyshev"`` (default; uses the stratified
            variance estimate) or ``"hoeffding"`` (distribution-free, uses
            per-stratum value ranges precomputed from the base table --
            applies to SUM/COUNT; AVG always falls back to Chebyshev).
        rng: numpy generator for sampling.
        guard_policy: default serve-time guard for :meth:`answer`.
            ``None``/``True`` installs the default :class:`GuardPolicy`;
            ``False`` disables guarding unless a policy is passed per call.
        telemetry: a :class:`~repro.obs.Telemetry` bundle (tracer +
            metrics registry), ``True`` for an enabled bundle, or
            ``None``/``False`` for a disabled one (the default; a disabled
            bundle's overhead on :meth:`answer` is a no-op check per call
            site).  The bundle can be enabled/disabled later through
            :attr:`telemetry`.
        parallel: partition-parallel scan configuration for base-table
            work (exact answers, guard fallbacks, synopsis construction).
            A :class:`~repro.engine.executor.ParallelConfig`, ``True`` for
            defaults, ``False`` to force serial execution, or ``None``
            (default) to honour the ``REPRO_PARALLEL_WORKERS`` environment
            variable and otherwise use defaults (which still run serially
            on small inputs or single-CPU hosts -- see
            :class:`ParallelConfig`).  Results are group-for-group
            identical to serial execution.
        cache: the answer cache for :meth:`answer`.  ``None``/``True``
            installs a default 128-entry LRU, an ``int`` sets the
            capacity, an :class:`AnswerCache` is used as-is, and ``False``
            disables caching.  Entries are keyed by table data version and
            normalized plan, so inserts and refreshes invalidate; guard-
            degraded answers are never cached.  The roll-up subsumption
            index (:class:`~repro.aqua.reuse.RollupIndex`) is on exactly
            when the answer cache is.  The 256-entry optimized-plan cache
            (:attr:`plan_cache`) is always on.
        """
        if space_budget < 1:
            raise AquaError(f"space budget must be >= 1, got {space_budget}")
        if bound_method not in ("chebyshev", "hoeffding"):
            raise AquaError(
                f"bound_method must be chebyshev or hoeffding, "
                f"got {bound_method!r}"
            )
        self.catalog = Catalog()
        self._budget = space_budget
        self._allocation = allocation_strategy or Congress()
        self._rewrite = rewrite_strategy or NestedIntegrated()
        self._confidence = confidence
        self._bound_method = bound_method
        self._rng = rng if rng is not None else np.random.default_rng()
        self._tables: Dict[str, _TableState] = {}
        self._synopses: Dict[str, Synopsis] = {}
        self._query_logs: Dict[str, QueryLog] = {}
        self._portfolios: Dict[str, SynopsisPortfolio] = {}
        if telemetry is None or telemetry is False:
            self.telemetry = Telemetry.disabled()
        elif telemetry is True:
            self.telemetry = Telemetry.enabled()
        elif isinstance(telemetry, Telemetry):
            self.telemetry = telemetry
        else:
            raise AquaError(
                "telemetry must be a Telemetry bundle, True, False, or "
                f"None; got {telemetry!r}"
            )
        if guard_policy is False:
            self._guard: Optional[GuardPolicy] = None
        elif guard_policy is None or guard_policy is True:
            self._guard = GuardPolicy()
        elif isinstance(guard_policy, GuardPolicy):
            self._guard = guard_policy
        else:
            raise AquaError(
                "guard_policy must be a GuardPolicy, True, False, or None; "
                f"got {guard_policy!r}"
            )
        if parallel is False:
            self._executor: Optional[ParallelExecutor] = None
        elif parallel is None or parallel is True:
            config = (
                ParallelConfig.from_env() if parallel is None else None
            ) or ParallelConfig()
            self._executor = ParallelExecutor(config, self.telemetry)
        elif isinstance(parallel, ParallelConfig):
            self._executor = ParallelExecutor(parallel, self.telemetry)
        else:
            raise AquaError(
                "parallel must be a ParallelConfig, True, False, or None; "
                f"got {parallel!r}"
            )
        if cache is False:
            self._cache: Optional[AnswerCache] = None
        elif cache is None or cache is True:
            self._cache = AnswerCache()
        elif isinstance(cache, AnswerCache):
            self._cache = cache
        elif isinstance(cache, int):
            self._cache = AnswerCache(capacity=cache)
        else:
            raise AquaError(
                "cache must be an AnswerCache, int capacity, True, False, "
                f"or None; got {cache!r}"
            )
        # ``cache=False`` means "recompute every answer", which the roll-up
        # tier honours too.
        self._reuse: Optional[RollupIndex] = None
        if self._cache is not None:
            self._cache.attach_metrics(self.telemetry.metrics)
            self._reuse = RollupIndex()
        self._plan_cache = LRUCache(
            256, self.telemetry.metrics, prefix="aqua_plan_cache"
        )
        self._auditor = None
        self._slo = None

    # -- administration ------------------------------------------------------

    @property
    def auditor(self):
        """The attached accuracy auditor, if any (see :meth:`attach_auditor`)."""
        return self._auditor

    @property
    def slo(self):
        """The attached SLO monitor, if any (see :meth:`attach_slo`)."""
        return self._slo

    def attach_auditor(self, auditor) -> None:
        """Shadow-audit a sample of served answers against the exact path.

        Every non-degraded :meth:`answer` (served with ``audit=True``, the
        default) is offered to the auditor, which makes its own sampling
        decision and recomputes the chosen answers exactly off the serving
        thread -- see :class:`~repro.obs.audit.AccuracyAuditor`.  Pass
        ``None`` to detach.
        """
        self._auditor = auditor

    def attach_slo(self, slo) -> None:
        """Feed serving outcomes into an :class:`~repro.obs.slo.SLOMonitor`.

        :meth:`answer` then records end-to-end latency and the
        degraded/clean verdict per query; the attached auditor (if any)
        feeds the ``bound_violation_rate`` stream.  Pass ``None`` to
        detach.
        """
        self._slo = slo

    @property
    def space_budget(self) -> int:
        return self._budget

    @property
    def guard_policy(self) -> Optional[GuardPolicy]:
        """The default guard applied by :meth:`answer` (None = unguarded)."""
        return self._guard

    @property
    def executor(self) -> Optional[ParallelExecutor]:
        """The partitioned scan executor (None = forced serial)."""
        return self._executor

    @property
    def parallel_config(self) -> Optional[ParallelConfig]:
        """The active parallel-scan configuration (None = forced serial)."""
        return self._executor.config if self._executor is not None else None

    def set_parallel(
        self, parallel: Union[ParallelConfig, bool, None]
    ) -> None:
        """Reconfigure parallel scanning at runtime (the shell's ``.parallel``)."""
        if parallel is False:
            self._executor = None
        elif parallel is True or parallel is None:
            self._executor = ParallelExecutor(ParallelConfig(), self.telemetry)
        elif isinstance(parallel, ParallelConfig):
            self._executor = ParallelExecutor(parallel, self.telemetry)
        else:
            raise AquaError(
                "parallel must be a ParallelConfig, True, False, or None; "
                f"got {parallel!r}"
            )

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The answer cache (None = caching disabled)."""
        return self._cache

    @property
    def plan_cache(self) -> LRUCache:
        """The optimized-plan cache."""
        return self._plan_cache

    @property
    def rollup_index(self) -> Optional[RollupIndex]:
        """The roll-up subsumption index (None = rollup tier disabled)."""
        return self._reuse

    def set_cache(
        self, cache: Union[AnswerCache, int, bool, None]
    ) -> None:
        """Replace, resize, enable, or disable the answer cache.

        The roll-up subsumption index follows: disabling the cache also
        disables semantic reuse ("recompute every answer" must mean all
        tiers), and re-enabling restores a default index if none is set.
        """
        if cache is False:
            self._cache = None
            self._reuse = None
            return
        if cache is True or cache is None:
            self._cache = AnswerCache()
        elif isinstance(cache, AnswerCache):
            self._cache = cache
        elif isinstance(cache, int):
            self._cache = AnswerCache(capacity=cache)
        else:
            raise AquaError(
                "cache must be an AnswerCache, int capacity, True, False, "
                f"or None; got {cache!r}"
            )
        self._cache.attach_metrics(self.telemetry.metrics)
        if self._reuse is None:
            self._reuse = RollupIndex()

    def table_version(self, name: str) -> int:
        """The table's monotonic data version (cache-invalidation token)."""
        return self._state(name).version

    def table_names(self) -> List[str]:
        """Registered base-table names (synopsis relations excluded)."""
        return sorted(self._tables)

    def register_table(
        self,
        name: str,
        table: Table,
        grouping_columns: Optional[Sequence[str]] = None,
        build: bool = True,
    ) -> Optional[Synopsis]:
        """Register a base table and (by default) build its synopsis.

        Args:
            name: table name for SQL queries.
            table: the base relation.
            grouping_columns: stratification columns; defaults to the
                schema's ``grouping``-role columns.
            build: build the synopsis now (else call :meth:`build_synopsis`).
        """
        if grouping_columns is None:
            grouping_columns = table.schema.grouping_columns()
        if not grouping_columns:
            raise AquaError(
                f"table {name!r} has no grouping columns; annotate the "
                "schema roles or pass grouping_columns explicitly"
            )
        for column in grouping_columns:
            table.schema.column(column)
        self.catalog.register(name, table, replace=True)
        previous = self._tables.get(name)
        state = _TableState(table, tuple(grouping_columns))
        if previous is not None:
            # Re-registration continues the version sequence so cached
            # answers for the replaced data can never be served again.
            state.version = previous.version
            self._bump_version(name, state, replaced=True)
        self._tables[name] = state
        if build:
            return self.build_synopsis(name)
        return None

    def build_synopsis(self, name: str) -> Synopsis:
        """(Re)build the sample synopsis for a registered table."""
        state = self._state(name)
        start = time.perf_counter()
        with self.telemetry.tracer.span("build_synopsis", table=name):
            # Both full-table passes of the one-pass construction -- the
            # allocation's group-count scan (a planner-lowered COUNT(*)
            # GROUP BY over the base relation) and the per-stratum
            # membership scan -- run partitioned when an executor is
            # configured; the merged counts and member lists are identical
            # to a serial scan's, so the drawn sample is bit-for-bit the
            # same.
            counts = self._group_count_scan(name, state.grouping_columns)
            allocation = self._allocation.allocate(
                counts, state.grouping_columns, self._budget
            )
            sample = StratifiedSample.build(
                state.table,
                state.grouping_columns,
                allocation.rounded(),
                rng=self._rng,
                scan=self._executor,
            )
            synopsis = self._install(name, sample)
        metrics = self.telemetry.metrics
        if metrics.enabled:
            metrics.histogram(
                "aqua_synopsis_build_seconds",
                "Wall time to (re)build one synopsis from the base table.",
                ("table",),
            ).observe(time.perf_counter() - start, table=name)
        return synopsis

    def _group_count_scan(
        self, name: str, grouping_columns: Tuple[str, ...]
    ) -> Dict[GroupKey, int]:
        """Per-finest-group tuple counts ``n_g`` via the plan executor.

        Lowers ``SELECT G..., COUNT(*) FROM name GROUP BY G`` through the
        planner, so the allocation's counting pass takes the same operator
        path (and the same parallel GroupBy) as every other scan.  The
        GroupBy's sorted group order matches
        :func:`repro.sampling.groups.group_counts` exactly, so downstream
        order-sensitive consumers (largest-remainder rounding ties) see
        identical input and the drawn sample stays bit-for-bit the same.
        """
        query = Query(
            select=tuple(
                Projection(Col(column), column) for column in grouping_columns
            )
            + (Aggregate("count", Lit(1), "__count"),),
            from_item=name,
            group_by=tuple(grouping_columns),
        )
        result = execute_plan(
            optimize_plan(lower_query(query, self.catalog)),
            self.catalog,
            parallel=self._executor,
            tracer=self.telemetry.tracer,
        )
        arrays = [result.column(column) for column in grouping_columns]
        counts = result.column("__count")
        return {
            make_key(tuple(arr[i] for arr in arrays)): int(counts[i])
            for i in range(result.num_rows)
        }

    def _install(self, name: str, sample: StratifiedSample) -> Synopsis:
        installed = self._rewrite.install(sample, name, self.catalog, replace=True)
        synopsis = Synopsis(
            base_name=name,
            grouping_columns=tuple(sample.grouping_columns),
            allocation_strategy=getattr(self._allocation, "name", "custom"),
            rewrite_strategy=self._rewrite.name,
            budget=self._budget,
            sample=sample,
            installed=installed,
        )
        replaced = self._synopses.get(name)
        self._synopses[name] = synopsis
        if replaced is not None and replaced.sample is not sample:
            # Cached answers of earlier versions still name the replaced
            # synopsis; they must not keep its frame's arrays alive too.
            replaced.sample.release_frame()
        state = self._tables.get(name)
        if state is not None:
            with state.lock:
                state.inserts_since_refresh = 0
                state.rows_at_refresh = state.table.num_rows + len(
                    state.pending_rows
                )
                self._bump_version(name, state)
        return synopsis

    def _bump_version(
        self, name: str, state: _TableState, replaced: bool = False
    ) -> None:
        """Advance the table's data version: the one invalidation hook.

        Every cache key embeds the version, so entries for older data are
        never looked up again; the roll-up index's entries for the table
        are dropped eagerly here as well.  ``replaced`` (re-registration)
        also drops the primary synopsis and the portfolio built from the
        replaced table, so nothing answers from data that is gone: until
        they are rebuilt, :meth:`answer` raises
        :class:`~repro.errors.SynopsisMissingError`.
        """
        with state.lock:
            state.version += 1
            if self._reuse is not None:
                self._reuse.invalidate(name)
            if not replaced:
                return
            synopsis = self._synopses.pop(name, None)
            if synopsis is not None:
                synopsis.sample.release_frame()
            portfolio = self._portfolios.pop(name, None)
            if portfolio is not None:
                for member in portfolio.members.values():
                    member.synopsis.sample.release_frame()

    def synopsis(self, name: str) -> Synopsis:
        try:
            return self._synopses[name]
        except KeyError:
            if name not in self._tables:
                raise TableNotRegisteredError(
                    f"table {name!r} is not registered"
                ) from None
            raise SynopsisMissingError(
                f"no synopsis built for table {name!r}"
            ) from None

    def _state(self, name: str) -> _TableState:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotRegisteredError(
                f"table {name!r} is not registered"
            ) from None

    # -- synopsis portfolio --------------------------------------------------

    def portfolio(self, name: str) -> SynopsisPortfolio:
        """The table's synopsis portfolio (see :meth:`build_portfolio`)."""
        portfolio = self._portfolios.get(name)
        if portfolio is None:
            self._state(name)  # typed error for unregistered tables
            raise SynopsisMissingError(
                f"no portfolio built for table {name!r}; call "
                "build_portfolio() before answering with "
                "max_rel_error/max_ms budgets"
            )
        return portfolio

    def has_portfolio(self, name: str) -> bool:
        return name in self._portfolios

    def build_portfolio(
        self,
        name: str,
        specs: Optional[Sequence[SynopsisSpec]] = None,
    ) -> SynopsisPortfolio:
        """(Re)build a multi-member synopsis portfolio for a table.

        Each :class:`~repro.aqua.portfolio.SynopsisSpec` becomes one
        congressional sample -- its own allocation strategy, tuple budget,
        and (optionally) grouping-column subset -- installed as regular
        catalog relations under ``{table}__pf_{member}`` names.  With
        ``specs=None`` the stock ladder from
        :func:`~repro.aqua.portfolio.default_portfolio_specs` is used
        (``fine``/``mid``/``coarse``, plus a workload-hot member when the
        table's query log shows a dominant grouping).

        Pending inserts are flushed first so every member covers the same
        base rows; the table's data version is bumped afterwards, so
        cached answers and cached budget resolutions from before the build
        can never be served again.
        """
        state = self._state(name)
        self._flush_pending(name)
        workload = self.query_log(name)
        if specs is None:
            specs = default_portfolio_specs(
                self._budget, state.grouping_columns, workload
            )
        if len(specs) < 1:
            raise AquaError("build_portfolio needs at least one spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise AquaError(f"duplicate portfolio member names: {names}")
        existing = self._portfolios.get(name)
        model = (
            existing.model
            if existing is not None
            else CostErrorModel(confidence=self._confidence)
        )
        portfolio = SynopsisPortfolio(
            base_name=name, model=model, workload=workload
        )
        start = time.perf_counter()
        with self.telemetry.tracer.span(
            "build_portfolio", table=name, members=len(specs)
        ):
            for spec in specs:
                synopsis = self._build_member(name, state, spec)
                portfolio.add_member(
                    spec,
                    synopsis,
                    built_version=state.version,
                    rows_at_build=state.table.num_rows
                    + len(state.pending_rows),
                )
        self._portfolios[name] = portfolio
        if existing is not None:
            for member in existing.members.values():
                member.synopsis.sample.release_frame()
        self._bump_version(name, state)
        metrics = self.telemetry.metrics
        if metrics.enabled:
            metrics.gauge(
                "portfolio_members",
                "Synopsis portfolio members per table.",
                ("table",),
            ).set(len(portfolio.members), table=name)
            metrics.histogram(
                "portfolio_build_seconds",
                "Wall time to (re)build a whole synopsis portfolio.",
                ("table",),
            ).observe(time.perf_counter() - start, table=name)
        return portfolio

    def refresh_portfolio(
        self, name: str, trigger: str = "manual"
    ) -> SynopsisPortfolio:
        """Rebuild every portfolio member from the current base relation.

        Keeps the existing specs and the calibrated cost/error model;
        bumps the data version so stale budget resolutions invalidate.
        """
        portfolio = self.portfolio(name)
        metrics = self.telemetry.metrics
        if metrics.enabled:
            metrics.counter(
                "portfolio_refreshes_total",
                "Portfolio refreshes, by table and trigger.",
                ("table", "trigger"),
            ).inc(table=name, trigger=trigger)
        return self.build_portfolio(name, specs=portfolio.specs())

    def _build_member(
        self, name: str, state: _TableState, spec: SynopsisSpec
    ) -> Synopsis:
        """Build and install one portfolio member's congressional sample.

        The sample relations are installed under a decorated name
        (``{table}__pf_{member}``) so members coexist in the catalog, but
        the installed handle's ``base_name`` stays the real table: the
        rewriter validates queries against it.
        """
        grouping = tuple(spec.grouping_columns or state.grouping_columns)
        for column in grouping:
            state.table.schema.column(column)  # typed error on bad columns
        counts = self._group_count_scan(name, grouping)
        allocation = spec.allocation.allocate(counts, grouping, spec.budget)
        sample = StratifiedSample.build(
            state.table,
            grouping,
            allocation.rounded(),
            rng=self._rng,
            scan=self._executor,
        )
        installed = self._rewrite.install(
            sample, f"{name}__pf_{spec.name}", self.catalog, replace=True
        )
        installed = dataclass_replace(installed, base_name=name)
        return Synopsis(
            base_name=name,
            grouping_columns=grouping,
            allocation_strategy=getattr(spec.allocation, "name", "custom"),
            rewrite_strategy=self._rewrite.name,
            budget=spec.budget,
            sample=sample,
            installed=installed,
        )

    def _observe_portfolio_answer(
        self,
        table: str,
        choice: PortfolioChoice,
        answer: ApproximateAnswer,
        max_rel_error: Optional[float],
    ) -> None:
        """Selection metrics, prediction-miss accounting, model feedback."""
        portfolio = self._portfolios.get(table)
        if portfolio is not None and answer.elapsed_seconds > 0:
            portfolio.model.observe_latency(
                choice.synopsis.sample_size, answer.elapsed_seconds
            )
        miss = False
        if max_rel_error is not None and choice.within_error_budget:
            counts = answer.provenance_counts
            if counts.get(PROVENANCE_REPAIRED, 0) or counts.get(
                PROVENANCE_EXACT, 0
            ):
                # The model said the member would hold the bound, but the
                # guard had to escalate groups -- a prediction miss (the
                # promise itself still holds, via the ladder).
                miss = True
            promised = answer.promised_rel_error
            if promised is not None and promised > max_rel_error * (
                1.0 + 1e-9
            ):
                miss = True
        metrics = self.telemetry.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "portfolio_selections_total",
            "Budget resolutions, by table, chosen member, and reason.",
            ("table", "synopsis", "reason"),
        ).inc(table=table, synopsis=choice.member, reason=choice.reason)
        if math.isfinite(choice.predicted_rel_error):
            metrics.histogram(
                "portfolio_predicted_rel_error",
                "The model's predicted worst-group relative error at "
                "selection time.",
                ("table",),
                buckets=(
                    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                    0.25, 0.5, 1.0, 2.5,
                ),
            ).observe(choice.predicted_rel_error, table=table)
        if miss:
            metrics.counter(
                "portfolio_prediction_miss_total",
                "Answers whose member was predicted within the error "
                "budget but needed guard escalation (or broke the "
                "promise).",
                ("table", "synopsis"),
            ).inc(table=table, synopsis=choice.member)

    # -- health & staleness --------------------------------------------------

    def set_refresh_policy(
        self, name: str, policy: Optional[RefreshPolicy]
    ) -> None:
        """Attach (or clear) an auto-refresh drift policy for a table."""
        state = self._state(name)
        state.refresh_policy = policy
        self._maybe_auto_refresh(name)

    def health(
        self, name: str, stale_after_fraction: float = 0.1
    ) -> SynopsisHealth:
        """Health report: sample ratio, strata coverage, drift, validity."""
        state = self._state(name)
        synopsis = self._synopses.get(name)
        maintained = state.maintainer is not None
        maintainer_inserts = (
            getattr(state.maintainer, "inserts_seen", 0) if maintained else 0
        )
        if synopsis is None:
            return SynopsisHealth(
                table=name,
                built=False,
                base_rows=state.table.num_rows,
                pending_rows=len(state.pending_rows),
                sample_size=0,
                budget=self._budget,
                strata_total=0,
                strata_covered=0,
                inserts_since_refresh=state.inserts_since_refresh,
                rows_at_refresh=state.rows_at_refresh,
                maintained=maintained,
                maintainer_inserts=maintainer_inserts,
                issues=("no synopsis built",),
                stale_after_fraction=stale_after_fraction,
            )
        frame = synopsis.sample.frame
        populated = frame.all_populations > 0
        return SynopsisHealth(
            table=name,
            built=True,
            base_rows=state.table.num_rows,
            pending_rows=len(state.pending_rows),
            sample_size=synopsis.sample_size,
            budget=self._budget,
            strata_total=int(populated.sum()),
            strata_covered=int((populated & (frame.all_sizes > 0)).sum()),
            inserts_since_refresh=state.inserts_since_refresh,
            rows_at_refresh=state.rows_at_refresh,
            maintained=maintained,
            maintainer_inserts=maintainer_inserts,
            issues=tuple(self._synopsis_issues(state, synopsis)),
            stale_after_fraction=stale_after_fraction,
        )

    def _synopsis_issues(
        self,
        state: _TableState,
        synopsis: Synopsis,
        expected_rows: Optional[int] = None,
    ) -> List[str]:
        """Structural validation plus base-coverage bookkeeping.

        ``expected_rows`` is the base row count this synopsis is supposed
        to cover: the table's ``rows_at_refresh`` for the primary synopsis
        (the default), a member's ``rows_at_build`` for portfolio members
        (which may legitimately differ from the primary's bookkeeping).
        """
        issues = validate_sample(synopsis.sample)
        covered = synopsis.sample.total_population
        if expected_rows is None:
            expected_rows = state.rows_at_refresh
        if expected_rows and covered != expected_rows:
            issues.append(
                f"synopsis strata cover {covered} rows but "
                f"{expected_rows} were present at the last refresh"
            )
        return issues

    def _maybe_auto_refresh(self, name: str) -> None:
        state = self._tables.get(name)
        if (
            state is None
            or state.refresh_policy is None
            or name not in self._synopses
        ):
            return
        if state.refresh_policy.should_refresh(
            state.inserts_since_refresh, state.rows_at_refresh
        ):
            self.refresh_synopsis(name, trigger="auto")

    # -- observability -------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The system's span tracer (disabled by default)."""
        return self.telemetry.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The system's metrics registry (disabled by default)."""
        return self.telemetry.metrics

    def query_log(self, name: str) -> QueryLog:
        """The auto-recorded workload log for a registered table.

        Every query served by :meth:`answer` is recorded automatically, so
        :meth:`~repro.aqua.workload_log.QueryLog.to_preferences` can mine
        grouping preferences without any manual logging.
        """
        state = self._state(name)
        log = self._query_logs.get(name)
        if log is None:
            log = QueryLog(name, state.grouping_columns)
            self._query_logs[name] = log
        return log

    def _observe_answer(
        self, answer: ApproximateAnswer, wall_seconds: float
    ) -> None:
        """Record one served answer into the metrics registry."""
        metrics = self.telemetry.metrics
        table = answer.synopsis.base_name
        metrics.counter(
            "aqua_queries_total",
            "Queries served by AquaSystem.answer(), per table.",
            ("table",),
        ).inc(table=table)
        metrics.histogram(
            "aqua_answer_seconds",
            "End-to-end answer() latency in seconds.",
            ("table",),
        ).observe(wall_seconds, table=table)
        if answer.trace is not None:
            stage_latency = metrics.histogram(
                "aqua_stage_seconds",
                "Per-pipeline-stage answer latency in seconds.",
                ("stage",),
            )
            for stage, seconds in answer.trace.stage_seconds().items():
                stage_latency.observe(seconds, stage=stage)
        if answer.guard is not None:
            observe_guard(metrics, table, answer.guard)

    # -- query answering -------------------------------------------------

    def _resolve_guard(
        self, guard: Union[GuardPolicy, bool, None]
    ) -> Optional[GuardPolicy]:
        if guard is None:
            return self._guard
        if guard is False:
            return None
        if guard is True:
            return self._guard if self._guard is not None else GuardPolicy()
        if isinstance(guard, GuardPolicy):
            return guard
        raise AquaError(
            f"guard must be a GuardPolicy, True, False, or None; got {guard!r}"
        )

    def answer(
        self,
        sql: Union[str, Query],
        guard: Union[GuardPolicy, bool, None] = None,
        deadline: Union[Deadline, float, None] = None,
        audit: bool = True,
        max_rel_error: Optional[float] = None,
        max_ms: Optional[float] = None,
        use_synopsis: Optional[str] = None,
    ) -> ApproximateAnswer:
        """Rewrite and execute a user query against the synopsis.

        The query must aggregate over a single registered base table.  The
        result carries an ``<alias>_error`` column per SUM/COUNT/AVG
        aggregate: the Chebyshev half-width at the configured confidence.

        When a guard policy is active (the default), the answer is served
        through an escalation ladder: the synopsis answer is checked group
        by group; groups with too little sample support, non-finite
        aggregates, or unusable error bounds are *repaired* from the base
        table; and structurally corrupt or overly stale synopses degrade to
        a full exact answer (or a typed error, per the policy).  Guarded
        results carry a per-group provenance column.

        When the system's tracer is enabled, the returned answer carries a
        :class:`~repro.obs.QueryTrace` whose top-level stages (``parse``,
        ``cache_probe``, ``rollup_probe``, ``validate``, ``rewrite``,
        ``plan_optimize``, ``execute``, ``error_bounds``, ``guard``,
        ``cache_store``) account for the pipeline's wall time; when the metrics
        registry is enabled, query counters, per-stage latency histograms,
        and guard provenance counters are updated.  The query is always
        recorded in the table's :meth:`query_log` for workload mining.

        The pipeline honours an optional per-query *deadline*: a typed
        :class:`~repro.errors.DeadlineExceeded` (tagged with the stage or
        plan operator it died in) aborts the answer cooperatively -- stage
        boundaries here, per-operator in the plan executor, per-partition
        in the parallel scanner.  With ``deadline=None``, any deadline
        installed by an enclosing
        :func:`~repro.serve.deadline.deadline_scope` (e.g. the serving
        layer's) still applies.

        Args:
            sql: SQL text or a :class:`~repro.engine.query.Query`.
            guard: per-call guard override -- a :class:`GuardPolicy`,
                ``False`` to serve unguarded, or ``None`` to use the
                system's default policy.
            deadline: time budget for this answer -- seconds, a
                :class:`~repro.serve.deadline.Deadline`, or ``None`` to
                inherit the ambient scope (if any).
            max_rel_error: error budget -- resolve the answer against the
                table's synopsis portfolio (see :meth:`build_portfolio`),
                choosing the cheapest member predicted to keep the worst
                per-group relative error at or below this bound.  The guard
                policy is tightened to ``max_relative_halfwidth <=
                max_rel_error`` so a prediction miss falls through the
                ladder (repair, exact) instead of breaking the promise.
            max_ms: latency budget in milliseconds -- prefer the most
                accurate portfolio member predicted to answer within it.
                Advisory (a model prediction), not a hard deadline; pass
                ``deadline`` for hard cutoffs.
            use_synopsis: serve from this specific portfolio member,
                bypassing budget resolution (the serving layer's
                degradation ladder uses this to reach for the coarsest
                member before giving up on sampling entirely).
            audit: offer this answer to the attached accuracy auditor and
                record it in the attached SLO monitor's served stream.
                The serving layer passes ``False`` for answers it is about
                to degrade (load shedding, open breaker): those answers
                carry no accuracy promise, so auditing them -- or counting
                them as cleanly served -- would corrupt both signals.
        """
        telemetry = self.telemetry
        tracer = telemetry.tracer
        events = telemetry.events
        measure = (
            telemetry.metrics.enabled
            or events.enabled
            or self._slo is not None
        )
        wall_start = time.perf_counter() if measure else 0.0
        trace_id = events.next_trace_id() if events.enabled else None
        with deadline_scope(Deadline.resolve(deadline)):
            had_deadline = current_deadline() is not None
            root = tracer.span("answer")
            try:
                with root:
                    try:
                        answer = self._answer_pipeline(
                            sql,
                            guard,
                            tracer,
                            root,
                            max_rel_error=max_rel_error,
                            max_ms=max_ms,
                            use_synopsis=use_synopsis,
                        )
                    except RecursionError as exc:
                        raise QueryTooDeepError(
                            "the query (or the guard's repair of it) nests "
                            "predicates deeper than the interpreter's "
                            "recursion limit allows"
                        ) from exc
            except Exception as exc:
                if measure:
                    self._finish_failed(
                        sql,
                        trace_id,
                        exc,
                        time.perf_counter() - wall_start,
                        had_deadline,
                        root,
                    )
                raise
        if root.is_recording:
            answer.trace = QueryTrace(root)
        answer.trace_id = trace_id
        wall = time.perf_counter() - wall_start if measure else 0.0
        if telemetry.metrics.enabled:
            self._observe_answer(answer, wall)
        self._finish_answer(sql, answer, trace_id, wall, had_deadline, audit)
        return answer

    def _finish_answer(
        self,
        sql: Union[str, Query],
        answer: ApproximateAnswer,
        trace_id: Optional[str],
        wall: float,
        had_deadline: bool,
        audit: bool,
    ) -> None:
        """Post-answer observability: SLOs, event log, trace store, audit."""
        telemetry = self.telemetry
        degraded = answer.guard is not None and answer.guard.degraded
        if self._slo is not None:
            self._slo.record_latency(wall)
            if audit:
                self._slo.record_served(degraded)
        event = None
        if telemetry.events.enabled:
            table = answer.synopsis.base_name
            event = telemetry.events.emit(
                trace_id=trace_id,
                table=table,
                sql=sql if isinstance(sql, str) else render_query(sql),
                synopsis_version=self._version_or_none(table),
                allocation=getattr(
                    self._allocation, "name", type(self._allocation).__name__
                ),
                strategy=self._rewrite.name,
                provenance=answer.provenance_counts,
                promised_rel_error=self._promised_rel_error(answer.result),
                chosen_synopsis=answer.chosen_synopsis,
                predicted_rel_error=answer.predicted_rel_error,
                groups=answer.result.num_rows,
                stage_seconds=(
                    answer.trace.stage_seconds()
                    if answer.trace is not None
                    else {}
                ),
                duration_seconds=wall,
                cache_hit=answer.cache_hit,
                cache_tier=answer.cache_tier,
                reused_from=answer.reused_from,
                degraded=degraded,
                degradation="guard" if degraded else None,
                deadline=had_deadline,
            )
        if answer.trace is not None and trace_id is not None:
            telemetry.traces.offer(trace_id, answer.trace, degraded=degraded)
        if audit and not degraded and self._auditor is not None:
            query = parse_query(sql) if isinstance(sql, str) else sql
            self._auditor.offer(query, answer, event)

    def _finish_failed(
        self,
        sql: Union[str, Query],
        trace_id: Optional[str],
        exc: BaseException,
        wall: float,
        had_deadline: bool,
        root,
    ) -> None:
        """Best-effort observability for answers that died mid-pipeline."""
        telemetry = self.telemetry
        if self._slo is not None:
            self._slo.record_latency(wall)
        if telemetry.events.enabled:
            table = ""
            try:
                query = parse_query(sql) if isinstance(sql, str) else sql
                table = query.base_table_name()
            except Exception:
                pass
            telemetry.events.emit(
                trace_id=trace_id,
                table=table,
                sql=sql if isinstance(sql, str) else render_query(sql),
                status=(
                    "deadline"
                    if isinstance(exc, DeadlineExceeded)
                    else "error"
                ),
                error=str(exc),
                duration_seconds=wall,
                deadline=had_deadline,
            )
        if root.is_recording and trace_id is not None:
            telemetry.traces.offer(trace_id, QueryTrace(root), error=True)

    def _version_or_none(self, table: str) -> Optional[int]:
        try:
            return self._state(table).version
        except TableNotRegisteredError:
            return None

    @staticmethod
    def _promised_rel_error(result: Table) -> Dict[str, float]:
        """Worst finite per-group relative half-width, per aggregate alias."""
        return promised_rel_error_by_alias(result)

    def _cache_key(
        self,
        query: Query,
        base_name: str,
        policy: Optional[GuardPolicy],
        budget: Tuple = (),
        canonical=None,
    ):
        """The answer-cache key for this (query, serving configuration).

        ``None`` when caching is disabled.  The key embeds the table's
        *current* data version, the query's alias-insensitive canonical
        fingerprint (see :func:`repro.plan.canonicalize_query` -- predicate
        spelling, output aliases, and GROUP BY column order no longer
        fragment the cache), and every serve-time knob that changes the
        answer (guard policy -- hashable because it is frozen --
        confidence, bound method, and the budget tuple ``(max_rel_error,
        max_ms, chosen member)`` for portfolio-resolved answers).  Reads
        the version at call time: lookups use the pre-pipeline version,
        stores the post-pipeline one, so a mid-pipeline refresh stores
        under the version whose synopsis actually produced the answer.

        Pass a precomputed ``canonical`` (:class:`~repro.plan.CanonicalQuery`)
        to avoid re-canonicalizing between the lookup and the store.
        """
        if self._cache is None:
            return None
        if canonical is None:
            canonical = canonicalize_query(query)
        return (
            base_name,
            self._state(base_name).version,
            canonical.fingerprint,
            policy,
            self._confidence,
            self._bound_method,
            budget,
        )

    def _cost_model(self) -> CostModel:
        """A plan cost model seeded from the live catalog's cardinalities.

        Synopsis relations are registered in the catalog, so the model
        sees the *actual* sample sizes -- the portfolio's finest member
        costs more than its coarsest -- and the optimizer's rule gate
        (:func:`repro.plan.optimize` with ``cost_model``) never keeps a
        rewrite predicted to slow the plan.
        """
        return CostModel.from_catalog(self.catalog)

    def _optimized_plan(
        self, lowered, base_name: str, strategy: str, relation: str = ""
    ):
        """Optimize a lowered plan, memoized in the plan cache.

        The plan is canonicalized first and keyed by ``(table, version,
        strategy, relation, fingerprint)``: the canonical-plan digest
        (:func:`repro.plan.canonicalize`) lets trivially-equivalent
        spellings (predicate order, folded constants) share one optimized
        plan, and the data version covers every mutation that can change
        synopsis relations, so a stale plan is never replayed against
        rebuilt samples.  ``relation`` is the sample relation the rewrite
        reads (portfolio members of one table plan the same query
        differently); ``strategy`` is the rewrite strategy's name, or
        ``"stream"`` for base-table scans.  Optimization is cost-gated
        against catalog cardinalities (see :meth:`_cost_model`).  Returns
        ``(logical_plan, was_cached)``.
        """
        lowered, fingerprint = canonicalize(lowered)
        key = (
            base_name,
            self._state(base_name).version,
            strategy,
            relation,
            fingerprint,
        )
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached, True
        logical = optimize_plan(lowered, cost_model=self._cost_model())
        self._plan_cache.put(key, logical)
        return logical, False

    def _answer_pipeline(
        self,
        sql: Union[str, Query],
        guard: Union[GuardPolicy, bool, None],
        tracer: Tracer,
        root,
        max_rel_error: Optional[float] = None,
        max_ms: Optional[float] = None,
        use_synopsis: Optional[str] = None,
    ) -> ApproximateAnswer:
        """Cache front-end around the staged pipeline.

        A hit must be indistinguishable from recomputation: the key carries
        the data version (so any insert/flush/refresh/re-register since the
        entry was stored forces a miss) and guard-degraded answers are never
        stored, so a cached answer is always a clean one for current data.
        Budgeted answers additionally key on ``(max_rel_error, max_ms,
        chosen member)``, so the same query under different budgets -- or
        after a portfolio re-resolution -- never collides.
        """
        check_deadline("parse")
        with tracer.span("parse"):
            query = parse_query(sql) if isinstance(sql, str) else sql
            policy = self._resolve_guard(guard)
            base_name = query.base_table_name()
            state = self._state(base_name)
            self.query_log(base_name).record(query)
        root.set(table=base_name, guarded=policy is not None)

        choice: Optional[PortfolioChoice] = None
        if (
            max_rel_error is not None
            or max_ms is not None
            or use_synopsis is not None
        ):
            check_deadline("resolve")
            with tracer.span("resolve") as resolve_span:
                portfolio = self.portfolio(base_name)
                if use_synopsis is not None:
                    choice = portfolio.forced_choice(use_synopsis, query)
                else:
                    choice = portfolio.resolve(
                        query,
                        max_rel_error=max_rel_error,
                        max_ms=max_ms,
                        version=state.version,
                    )
                resolve_span.set(
                    synopsis=choice.member, reason=choice.reason
                )
            if max_rel_error is not None and use_synopsis is None:
                # Tighten the guard so a prediction miss falls through the
                # ladder (repair/exact) rather than breaking the promise.
                if policy is None:
                    policy = GuardPolicy(
                        max_relative_halfwidth=max_rel_error
                    )
                elif (
                    policy.max_relative_halfwidth is None
                    or policy.max_relative_halfwidth > max_rel_error
                ):
                    policy = dataclass_replace(
                        policy, max_relative_halfwidth=max_rel_error
                    )
            root.set(synopsis=choice.member)

        budget = (
            (max_rel_error, max_ms, choice.member)
            if choice is not None
            else ()
        )
        # The tier probes and the store get spans of their own: next to a
        # few-millisecond miss they are no longer too small to name.
        with tracer.span("cache_probe"):
            canonical = (
                canonicalize_query(query) if self._cache is not None else None
            )
            key = self._cache_key(query, base_name, policy, budget, canonical)
            entry = self._cache.get(key) if key is not None else None
        if key is not None:
            if entry is not None:
                # Shallow copy: the caller attaches this call's trace and
                # trace id to the returned object, which must not leak
                # into the cache.  A canonical hit is additionally
                # reconciled (aliases renamed, rows re-sorted) to the
                # probe's spelling.
                answer, tier = self._reconcile_cached(entry, query, canonical)
                root.set(cache=tier)
                self._cache.record_tier_hit(tier)
                return answer
            root.set(cache="miss")

        if choice is None:
            answer = self._rollup_answer(
                query, base_name, state, policy, tracer
            )
            if answer is not None:
                root.set(cache="rollup")
                if key is not None:
                    self._cache.record_tier_hit("rollup")
                    self._store_answer(
                        answer, query, base_name, policy, budget, canonical
                    )
                return answer

        answer = self._answer_stages(
            query,
            policy,
            base_name,
            state,
            tracer,
            choice=choice,
            budgets=(max_rel_error, max_ms),
        )
        if choice is not None:
            answer.chosen_synopsis = choice.member
            answer.predicted_rel_error = choice.predicted_rel_error
            self._observe_portfolio_answer(
                base_name, choice, answer, max_rel_error
            )
        if key is not None:
            self._store_answer(
                answer, query, base_name, policy, budget, canonical
            )
        return answer

    def _store_answer(
        self,
        answer: ApproximateAnswer,
        query: Query,
        base_name: str,
        policy: Optional[GuardPolicy],
        budget: Tuple,
        canonical,
    ) -> None:
        """Cache a clean answer under the version that produced it."""
        if answer.guard is not None and answer.guard.degraded:
            return
        with self.telemetry.tracer.span("cache_store"):
            self._cache.put(
                self._cache_key(query, base_name, policy, budget, canonical),
                self._cache_entry(answer, query, canonical),
            )

    def _cache_entry(
        self, answer: ApproximateAnswer, query: Query, canonical
    ) -> _CacheEntry:
        return _CacheEntry(
            answer=dataclass_replace(answer, trace=None),
            sql=render_query(query),
            aliases=tuple(canonical.aliases),
            group_by=tuple(query.group_by),
        )

    def _reconcile_cached(
        self, entry: _CacheEntry, query: Query, canonical
    ) -> Tuple[ApproximateAnswer, str]:
        """Serve a fingerprint hit, reconciling spelling differences.

        An *exact* hit (same rendered text) is returned as-is.  A
        *canonical* hit -- same semantics, different aliases or GROUP BY
        column order -- renames the result's aggregate/projection columns
        (and their ``_error`` companions) to the probe's aliases and, for
        probes without an ORDER BY, re-sorts rows into the probe's group
        order, so the served table is indistinguishable from direct
        execution of the probe.
        """
        answer = entry.answer
        if entry.sql == render_query(query):
            return (
                dataclass_replace(
                    answer, trace=None, cache_hit=True, cache_tier="exact"
                ),
                "exact",
            )
        result = answer.result
        mapping: Dict[str, str] = {}
        for old, new in zip(entry.aliases, canonical.aliases):
            if old == new:
                continue
            mapping[old] = new
            if f"{old}_error" in result.schema:
                mapping[f"{old}_error"] = f"{new}_error"
        if mapping:
            result = result.rename(mapping)
        if tuple(entry.group_by) != tuple(query.group_by) and not query.order_by:
            order = [
                name
                for name in query.group_by_aliases()
                if name in result.schema
            ]
            if order:
                result = result.sort_by(order)
        return (
            dataclass_replace(
                answer,
                result=result,
                trace=None,
                cache_hit=True,
                cache_tier="canonical",
            ),
            "canonical",
        )

    @staticmethod
    def _synopsis_signature(synopsis: Synopsis) -> Tuple:
        """What must match for a snapshot to serve a probe bit-identically.

        The installed sample relation name is included because portfolio
        members are distinct *draws*: a member with the primary's exact
        strategy/budget/grouping still holds different rows, so its
        moments must never serve a primary-synopsis probe.
        """
        return (
            synopsis.installed.sample_name,
            synopsis.allocation_strategy,
            synopsis.rewrite_strategy,
            synopsis.budget,
            tuple(synopsis.grouping_columns),
        )

    def _rollup_answer(
        self,
        query: Query,
        base_name: str,
        state: _TableState,
        policy: Optional[GuardPolicy],
        tracer: Tracer,
    ) -> Optional[ApproximateAnswer]:
        """Serve from the roll-up subsumption tier, or ``None`` on a miss.

        A hit merges a finer cached entry's per-stratum aggregate states
        down to the probe's GROUP BY (the paper's Section 6 datacube
        construction run in reverse), recomputing estimates *and*
        Chebyshev half-widths from the merged moments -- bit-identical to
        what the direct pipeline would produce at this version, because
        both run :meth:`ReuseSnapshot.finalize`.  The answer then passes
        through the normal guard ladder; its provenance is re-tagged
        ``rollup`` and the source entry recorded in ``reused_from``.
        """
        if self._reuse is None or self._bound_method != "chebyshev":
            return None
        if query.having is not None or not isinstance(query.from_item, str):
            return None
        aggregates = query.aggregates()
        if not aggregates or any(
            aggregate.func not in _SCALED_AGGREGATES
            for aggregate in aggregates
        ):
            return None
        projected = {
            item.expr.name
            for item in query.projections()
            if isinstance(item.expr, Col)
        }
        if not set(query.group_by) <= projected:
            return None
        synopsis = self._synopses.get(base_name)
        if synopsis is None:
            return None
        with tracer.span("rollup_probe"):
            match = self._reuse.lookup(
                base_name=base_name,
                version=state.version,
                synopsis_signature=self._synopsis_signature(synopsis),
                where=query.where,
                group_by=query.group_by,
                aggregates=aggregates,
                confidence=self._confidence,
            )
        if match is None:
            return None
        check_deadline("rollup")
        start = time.perf_counter()
        with tracer.span("rollup", source=match.snapshot.describe_source):
            rollup = match.snapshot.finalize(
                query.group_by, aggregates, match.extra_predicate
            )
            result = self._rollup_result(query, state, rollup)
        answer = ApproximateAnswer(
            result=result,
            confidence=self._confidence,
            synopsis=synopsis,
            elapsed_seconds=time.perf_counter() - start,
        )
        if policy is not None:
            __, __, support = self._rollup_rows(
                rollup, result, query.group_by_aliases()
            )
            answer = self._guard_answer(
                query,
                synopsis,
                answer,
                policy,
                state.inserts_since_refresh,
                support,
            )
        source = match.snapshot.describe_source
        if match.extra_conjuncts:
            source += f" sliced by ({' AND '.join(match.extra_conjuncts)})"
        answer = self._tag_rollup(answer, policy)
        answer.cache_tier = "rollup"
        answer.reused_from = source
        return answer

    def _rollup_result(
        self, query: Query, state: _TableState, rollup
    ) -> Table:
        """Materialize a :class:`~repro.aqua.reuse.RollupAnswer` as the
        probe's answer table: select-order columns, base-schema key types,
        ``<alias>_error`` columns appended in aggregate order (the same
        layout :meth:`_attach_error_bounds` produces), then ORDER BY and
        LIMIT applied exactly as the physical plan would."""
        from ..engine.schema import Schema

        base_schema = state.table.schema
        position = {name: i for i, name in enumerate(rollup.group_by)}
        schema_columns: List[Column] = []
        columns: Dict[str, object] = {}
        for item in query.select:
            if isinstance(item, Aggregate):
                schema_columns.append(Column(item.alias, ColumnType.FLOAT))
                columns[item.alias] = rollup.values[item.alias]
            else:
                name = item.expr.name
                schema_columns.append(
                    Column(item.alias, base_schema.column(name).ctype)
                )
                i = position[name]
                columns[item.alias] = [key[i] for key in rollup.keys]
        for aggregate in query.aggregates():
            error_name = f"{aggregate.alias}_error"
            schema_columns.append(Column(error_name, ColumnType.FLOAT))
            columns[error_name] = rollup.halfwidths[aggregate.alias]
        result = Table.from_columns(Schema(tuple(schema_columns)), **columns)
        if query.order_by:
            result = result.sort_by(list(query.order_by))
        if query.limit is not None:
            result = result.head(query.limit)
        return result

    def _tag_rollup(
        self, answer: ApproximateAnswer, policy: Optional[GuardPolicy]
    ) -> ApproximateAnswer:
        """Re-tag clean synopsis provenance as ``rollup``.

        Repaired/exact groups keep their tags (the guard really did that
        work), and :attr:`GuardReport.degraded` treats ``rollup`` as
        clean, so a roll-up-served answer is cacheable exactly when its
        direct-path twin would be.
        """
        report = answer.guard
        if report is not None:
            answer.guard = dataclass_replace(
                report,
                provenance={
                    key: (
                        PROVENANCE_ROLLUP
                        if tag == PROVENANCE_SYNOPSIS
                        else tag
                    )
                    for key, tag in report.provenance.items()
                },
            )
        column = (
            policy.provenance_column
            if policy is not None
            else PROVENANCE_COLUMN
        )
        if column in answer.result.schema:
            tags = answer.result.column(column)
            retagged = np.where(
                tags == PROVENANCE_SYNOPSIS, PROVENANCE_ROLLUP, tags
            )
            data = answer.result.columns()
            data[column] = retagged
            answer.result = Table(answer.result.schema, data)
        return answer

    def _answer_stages(
        self,
        query: Query,
        policy: Optional[GuardPolicy],
        base_name: str,
        state: _TableState,
        tracer: Tracer,
        choice: Optional[PortfolioChoice] = None,
        budgets: Tuple[Optional[float], Optional[float]] = (None, None),
    ) -> ApproximateAnswer:
        """The staged answer pipeline, one span per stage.

        Each stage starts with an ambient-deadline check, so an expired
        query dies at the next stage boundary with the stage name on the
        typed error; the plan/parallel executors check at finer grain
        (per operator, per partition) inside the execute stage.

        With a portfolio ``choice`` the chosen member replaces the primary
        synopsis throughout: its sample answers the query, its build-time
        row count anchors staleness and coverage validation, and a
        stale-triggered refresh rebuilds the *portfolio* (re-resolving the
        budgets against the fresh members) rather than the primary.
        """
        check_deadline("validate")
        with tracer.span("validate") as validate_span:
            self._maybe_auto_refresh(base_name)
            if choice is not None:
                synopsis = choice.synopsis
                current_rows = state.table.num_rows + len(state.pending_rows)
                stale = max(current_rows - choice.rows_at_build, 0)
            else:
                synopsis = self.synopsis(base_name)
                stale = state.inserts_since_refresh
            validate_span.set(stale_inserts=stale)
            if (
                policy is not None
                and policy.staleness_limit is not None
                and stale > policy.staleness_limit
            ):
                if policy.on_stale == "refresh":
                    if choice is not None:
                        portfolio = self.refresh_portfolio(
                            base_name, trigger="guard"
                        )
                        max_rel_error, max_ms = budgets
                        if max_rel_error is not None or max_ms is not None:
                            choice = portfolio.resolve(
                                query,
                                max_rel_error=max_rel_error,
                                max_ms=max_ms,
                                version=state.version,
                            )
                        else:
                            choice = portfolio.forced_choice(
                                choice.member, query
                            )
                        synopsis = choice.synopsis
                    else:
                        synopsis = self.refresh_synopsis(
                            base_name, trigger="guard"
                        )
                    stale = 0
                elif policy.on_stale == "raise":
                    raise StaleSynopsisError(
                        f"synopsis for {base_name!r} is stale: {stale} "
                        f"inserts since the last refresh exceed the limit "
                        f"of {policy.staleness_limit}; call "
                        "refresh_synopsis() or relax the guard policy"
                    )
                elif policy.on_stale == "exact":
                    return self._exact_answer(
                        query,
                        synopsis,
                        policy,
                        reason=f"stale synopsis ({stale} inserts over the "
                        f"limit of {policy.staleness_limit})",
                        stale=stale,
                    )
                # "serve": accept the staleness and continue.

            if policy is not None:
                issues = self._synopsis_issues(
                    state,
                    synopsis,
                    expected_rows=(
                        choice.rows_at_build if choice is not None else None
                    ),
                )
                if issues:
                    detail = "; ".join(issues)
                    if (
                        policy.on_corrupt == "raise"
                        or not policy.exact_fallback
                    ):
                        raise SynopsisCorruptError(
                            f"synopsis for {base_name!r} failed validation: "
                            f"{detail}"
                        )
                    return self._exact_answer(
                        query,
                        synopsis,
                        policy,
                        reason=f"corrupt synopsis: {detail}",
                        stale=stale,
                        issues=tuple(issues),
                    )

        check_deadline("rewrite")
        with tracer.span("rewrite", strategy=self._rewrite.name):
            plan = self._rewrite.plan(query, synopsis.installed)

        check_deadline("plan_optimize")
        with tracer.span("plan_optimize") as plan_span:
            logical, cached_plan = self._optimized_plan(
                lower_rewritten(plan, self.catalog),
                base_name,
                plan.strategy,
                synopsis.installed.sample_name,
            )
            plan_span.set(cache="hit" if cached_plan else "miss")

        check_deadline("execute")
        start = time.perf_counter()
        with tracer.span("execute") as execute_span:
            try:
                # Synopsis scans stay serial regardless of the executor:
                # samples are budget-bounded (small), and serial execution
                # keeps answers bit-identical across parallel configs.
                # Base-table scans (exact, guard repair, synopsis builds)
                # are where the partitioned GroupBy pays off.
                result = execute_plan(logical, self.catalog, tracer=tracer)
            except CatalogError as exc:
                raise SynopsisCorruptError(
                    f"synopsis relations for {base_name!r} are missing from "
                    f"the catalog: {exc}"
                ) from exc
            execute_span.set(rows=result.num_rows)
        elapsed = time.perf_counter() - start

        check_deadline("error_bounds")
        with tracer.span("error_bounds"):
            result, snapshot, support = self._attach_error_bounds(
                query, synopsis, result
            )
        answer = ApproximateAnswer(
            result=result,
            confidence=self._confidence,
            synopsis=synopsis,
            elapsed_seconds=elapsed,
        )
        if policy is not None:
            check_deadline("guard")
            with tracer.span("guard") as guard_span:
                answer = self._guard_answer(
                    query, synopsis, answer, policy, stale, support
                )
                if answer.guard is not None:
                    guard_span.set(**answer.guard.counts)
        # Degraded answers never populate the semantic tiers: the snapshot
        # describes a clean synopsis scan, and a degraded verdict means
        # that scan was not what the user was served.
        if (
            snapshot is not None
            and self._reuse is not None
            and (answer.guard is None or not answer.guard.degraded)
        ):
            self._reuse.register(snapshot)
        return answer

    # -- the guard ladder ---------------------------------------------------

    def _result_keys(
        self, table: Table, key_columns: Sequence[str]
    ) -> List[GroupKey]:
        """Each row's group key; ``key_columns`` are the *output* names of
        the ``GROUP BY`` columns (:meth:`Query.group_by_aliases`)."""
        if not key_columns:
            return [()] * table.num_rows
        return key_tuples([table.column(name) for name in key_columns])

    @staticmethod
    def _rollup_rows(
        rollup: RollupAnswer, result: Table, key_columns: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Match result rows to the roll-up's groups by integer code.

        ``key_columns`` names the result's group columns, in ``GROUP BY``
        order (:meth:`Query.group_by_aliases`).  Returns ``(found, group,
        support)``: which rows' answer groups the roll-up holds, those
        rows' group positions in it (``group`` lines up with ``found``'s
        true entries), and every row's qualifying sample tuples (0 where
        not found).
        """
        if key_columns:
            position = align_rows(
                rollup.key_arrays,
                [result.column(name) for name in key_columns],
            )
        else:
            # one global group, at position 0 -- or nowhere (-1) when no
            # sample tuple qualified and the roll-up is empty
            position = np.full(result.num_rows, len(rollup.keys) - 1)
        found = position >= 0
        group = position[found]
        support = np.zeros(result.num_rows, dtype=np.int64)
        support[found] = rollup.support[group]
        return found, group, support

    def _missing_groups(
        self,
        query: Query,
        synopsis: Synopsis,
        group_by: Sequence[str],
        present: set,
    ) -> List[GroupKey]:
        """Answer groups the synopsis knows exist but failed to estimate.

        Only detectable when the query groups by a subset of the
        stratification columns: then every populated stratum projects onto
        an expected answer group.  (A WHERE clause may legitimately empty a
        group -- the repair query settles that against the base table.)
        HAVING and LIMIT legitimately drop groups from the answer, so no
        absence is diagnosable under them.
        """
        if query.having is not None or query.limit is not None:
            return []
        if not group_by or not set(group_by) <= set(synopsis.grouping_columns):
            return []
        return sorted(synopsis.sample.frame.expected_groups(group_by) - present)

    def _flag_groups(
        self,
        query: Query,
        result: Table,
        keys: List[GroupKey],
        support: np.ndarray,
        policy: GuardPolicy,
    ) -> Dict[GroupKey, str]:
        """Threshold checks per answer group: support, finiteness, bounds.

        The checks run column-at-a-time; only the rows that fail one are
        then visited to word their reasons.
        """
        error_columns = {
            a.alias: f"{a.alias}_error"
            for a in query.aggregates()
            if a.func in _SCALED_AGGREGATES
        }
        checked: List[Tuple[str, np.ndarray, Optional[np.ndarray]]] = []
        failing = support < policy.min_group_support
        for aggregate in query.aggregates():
            column = result.column(aggregate.alias)
            if column.dtype.kind not in "fiu":
                continue  # non-numeric aggregate (e.g. MIN over strings)
            values = column.astype(np.float64)
            error_name = error_columns.get(aggregate.alias)
            halfwidths = (
                result.column(error_name) if error_name is not None else None
            )
            checked.append((aggregate.alias, values, halfwidths))
            failing = failing | ~np.isfinite(values)
            if halfwidths is not None:
                failing = failing | np.isnan(halfwidths)
                if policy.max_relative_halfwidth is not None:
                    # relative_halfwidth(), array-at-a-time: 0 for a zero
                    # half-width, inf over a zero estimate.
                    with np.errstate(divide="ignore", invalid="ignore"):
                        relative = np.where(
                            halfwidths == 0.0,
                            0.0,
                            np.abs(halfwidths) / np.abs(values),
                        )
                    failing = failing | (
                        relative > policy.max_relative_halfwidth
                    )
        flagged: Dict[GroupKey, str] = {}
        for i in np.flatnonzero(failing).tolist():
            reasons = []
            if support[i] < policy.min_group_support:
                reasons.append(
                    f"sample support {int(support[i])} below minimum "
                    f"{policy.min_group_support}"
                )
            for alias, values, halfwidths in checked:
                value = float(values[i])
                if not math.isfinite(value):
                    reasons.append(f"{alias} is not finite")
                    continue
                if halfwidths is None:
                    continue
                halfwidth = float(halfwidths[i])
                if math.isnan(halfwidth):
                    reasons.append(f"{alias}_error is NaN")
                elif policy.max_relative_halfwidth is not None:
                    relative = relative_halfwidth(halfwidth, value)
                    if relative > policy.max_relative_halfwidth:
                        reasons.append(
                            f"{alias} relative half-width "
                            f"{relative:.3g} exceeds "
                            f"{policy.max_relative_halfwidth:.3g}"
                        )
            if reasons:
                flagged[keys[i]] = "; ".join(reasons)
        return flagged

    def _guard_answer(
        self,
        query: Query,
        synopsis: Synopsis,
        answer: ApproximateAnswer,
        policy: GuardPolicy,
        stale: int,
        support: Optional[np.ndarray] = None,
    ) -> ApproximateAnswer:
        """Check every answer group and escalate the ones that fail.

        ``support`` is the qualifying sample tuples behind each result row
        when the bounds stage already read it off the roll-up; without it
        the sample is scanned for it here.
        """
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        result = answer.result
        group_by = list(query.group_by)
        keys = self._result_keys(result, query.group_by_aliases())
        if support is None:
            with tracer.span("support"):
                by_key = group_support(
                    synopsis.sample, predicate=query.where, group_by=group_by
                )
            support = np.array(
                [by_key.get(key, 0) for key in keys], dtype=np.int64
            )
        if metrics.enabled:
            support_histogram = metrics.histogram(
                "aqua_group_support_tuples",
                "Sample tuples backing each answer group.",
                buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 10000),
            )
            for count in support.tolist():
                support_histogram.observe(count)
        flagged = self._flag_groups(query, result, keys, support, policy)
        missing = self._missing_groups(query, synopsis, group_by, set(keys))

        needy = len(flagged) + len(missing)
        if needy == 0:
            tagged = self._attach_provenance(
                result, [PROVENANCE_SYNOPSIS] * len(keys), policy
            )
            report = GuardReport(
                policy=policy,
                provenance=dict.fromkeys(keys, PROVENANCE_SYNOPSIS),
                stale_inserts=stale,
            )
            return ApproximateAnswer(
                result=tagged,
                confidence=answer.confidence,
                synopsis=synopsis,
                elapsed_seconds=answer.elapsed_seconds,
                guard=report,
            )

        total = len(keys) + len(missing)
        repair_unsupported = (
            query.having is not None or query.limit is not None or not group_by
        )
        if (
            not policy.repair
            or repair_unsupported
            or needy / max(total, 1) > policy.max_repair_fraction
        ):
            reason = (
                f"{needy} of {total} answer groups failed the guard "
                f"({'; '.join(sorted(set(flagged.values())) or ['missing groups'])})"
            )
            if not policy.exact_fallback:
                raise GuardViolationError(
                    f"cannot serve {query.base_table_name()!r}: {reason} and "
                    "exact fallback is disabled by the guard policy"
                )
            return self._exact_answer(
                query, synopsis, policy, reason=reason, stale=stale,
                flagged=flagged,
            )
        return self._repair_answer(
            query, synopsis, answer, policy, stale, keys, flagged, missing
        )

    def _repair_answer(
        self,
        query: Query,
        synopsis: Synopsis,
        answer: ApproximateAnswer,
        policy: GuardPolicy,
        stale: int,
        keys: List[GroupKey],
        flagged: Dict[GroupKey, str],
        missing: List[GroupKey],
    ) -> ApproximateAnswer:
        """Patch only the failing groups from the base table.

        This is the paper's small-group problem handled at serve time: the
        synopsis answer is kept for well-supported groups, while flagged and
        missing groups are recomputed exactly over just their base rows.
        """
        result = answer.result
        group_by = list(query.group_by)
        repair_keys = sorted(set(flagged) | set(missing))
        repair_query = self._restrict_to_groups(query, group_by, repair_keys)

        start = time.perf_counter()
        with self.telemetry.tracer.span(
            "repair", groups=len(repair_keys)
        ):
            repair = self.exact(repair_query)
        repair_elapsed = time.perf_counter() - start

        repair_rows: Dict[GroupKey, Dict[str, object]] = {}
        for i, key in enumerate(
            self._result_keys(repair, query.group_by_aliases())
        ):
            repair_rows[key] = {
                name: repair.column(name)[i] for name in repair.schema.names
            }

        error_names = {
            f"{a.alias}_error"
            for a in query.aggregates()
            if a.func in _SCALED_AGGREGATES
        }
        names = result.schema.names
        rows: List[Tuple] = []
        tags: List[str] = []
        provenance: Dict[GroupKey, str] = {}
        dropped: List[GroupKey] = []
        for i, key in enumerate(keys):
            if key in flagged:
                fixed = repair_rows.get(key)
                if fixed is None:
                    # The base table has no qualifying rows for this group:
                    # the flagged estimate was a phantom; drop it.
                    dropped.append(key)
                    continue
                rows.append(
                    tuple(
                        0.0 if name in error_names else fixed[name]
                        for name in names
                    )
                )
                tags.append(PROVENANCE_REPAIRED)
                provenance[key] = PROVENANCE_REPAIRED
            else:
                rows.append(tuple(result.column(name)[i] for name in names))
                tags.append(PROVENANCE_SYNOPSIS)
                provenance[key] = PROVENANCE_SYNOPSIS
        for key in missing:
            fixed = repair_rows.get(key)
            if fixed is None:
                continue  # group has no qualifying base rows after all
            rows.append(
                tuple(
                    0.0 if name in error_names else fixed[name]
                    for name in names
                )
            )
            tags.append(PROVENANCE_REPAIRED)
            provenance[key] = PROVENANCE_REPAIRED

        merged = Table.from_rows(result.schema, rows)
        merged = self._attach_provenance(merged, tags, policy)
        if query.order_by:
            merged = merged.sort_by(list(query.order_by))
        report = GuardReport(
            policy=policy,
            provenance=provenance,
            flagged=dict(flagged),
            dropped=tuple(dropped),
            stale_inserts=stale,
        )
        return ApproximateAnswer(
            result=merged,
            confidence=answer.confidence,
            synopsis=synopsis,
            elapsed_seconds=answer.elapsed_seconds + repair_elapsed,
            guard=report,
        )

    def _restrict_to_groups(
        self, query: Query, group_by: Sequence[str], keys: Sequence[GroupKey]
    ) -> Query:
        """The original query, restricted to the given answer groups."""
        if len(group_by) == 1:
            key_predicate = InList.of(
                Col(group_by[0]), [key[0] for key in keys]
            )
        else:
            # Balanced trees: depth log2(groups), not one level per group,
            # so the recursive predicate walkers stay far from the limit.
            key_predicate = _balanced(
                Or,
                [
                    _balanced(
                        And,
                        [
                            Comparison.of(Col(column), "=", value)
                            for column, value in zip(group_by, key)
                        ],
                    )
                    for key in keys
                ],
            )
        where = (
            key_predicate
            if query.where is None
            else And(query.where, key_predicate)
        )
        return dataclass_replace(query, where=where, order_by=(), limit=None)

    def _attach_provenance(
        self, table: Table, tags: Sequence[str], policy: GuardPolicy
    ) -> Table:
        name = policy.provenance_column
        if name in table.schema:
            return table  # user query already owns the name; don't clobber
        return table.with_column(Column(name, ColumnType.STR), list(tags))

    def _exact_answer(
        self,
        query: Query,
        synopsis: Synopsis,
        policy: GuardPolicy,
        reason: str,
        stale: int,
        issues: Tuple[str, ...] = (),
        flagged: Optional[Dict[GroupKey, str]] = None,
    ) -> ApproximateAnswer:
        """Full exact fallback, shaped like an approximate answer.

        Error columns are attached as zeros (an exact answer has no
        sampling error) and every group is tagged ``exact``.
        """
        start = time.perf_counter()
        with self.telemetry.tracer.span("exact_fallback", reason=reason):
            result = self.exact(query)
        elapsed = time.perf_counter() - start
        for aggregate in query.aggregates():
            if aggregate.func not in _SCALED_AGGREGATES:
                continue
            result = result.with_column(
                Column(f"{aggregate.alias}_error", ColumnType.FLOAT),
                np.zeros(result.num_rows),
            )
        keys = self._result_keys(result, query.group_by_aliases())
        result = self._attach_provenance(
            result, [PROVENANCE_EXACT] * len(keys), policy
        )
        report = GuardReport(
            policy=policy,
            provenance={key: PROVENANCE_EXACT for key in keys},
            flagged=dict(flagged or {}),
            issues=issues,
            stale_inserts=stale,
            fallback_reason=reason,
        )
        return ApproximateAnswer(
            result=result,
            confidence=self._confidence,
            synopsis=synopsis,
            elapsed_seconds=elapsed,
            guard=report,
        )

    # -- calibration & ground truth -----------------------------------------

    def compare(
        self,
        sql: Union[str, Query],
        guard: Union[GuardPolicy, bool, None] = None,
    ) -> "ComparisonReport":
        """Answer approximately *and* exactly, and score the difference.

        Intended for calibration sessions: the administrator samples a few
        representative queries to decide whether the space budget is
        adequate (the paper's Section 7 protocol, as an API).  Pending
        inserts are flushed first so the approximate and exact answers are
        scored against the same relation; any synopsis staleness at answer
        time is recorded honestly in the report instead of silently skewing
        the error metrics.
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        base_name = query.base_table_name()
        state = self._state(base_name)
        self._flush_pending(base_name)
        answer = self.answer(query, guard=guard)
        # Read staleness after answering: a guard-triggered refresh clears it.
        stale_inserts = state.inserts_since_refresh
        start = time.perf_counter()
        exact = self.exact(query)
        exact_elapsed = time.perf_counter() - start

        from ..metrics.groupby_error import GroupByError, groupby_error

        per_aggregate: Dict[str, GroupByError] = {}
        key_columns = query.group_by_aliases()
        for aggregate in query.aggregates():
            per_aggregate[aggregate.alias] = groupby_error(
                exact, answer.result, key_columns, aggregate.alias
            )
        return ComparisonReport(
            approximate=answer,
            exact=exact,
            exact_elapsed_seconds=exact_elapsed,
            errors=per_aggregate,
            stale_inserts=stale_inserts,
        )

    def explain(
        self,
        sql: Union[str, Query],
        analyze: bool = False,
        max_rel_error: Optional[float] = None,
        max_ms: Optional[float] = None,
    ) -> str:
        """Show the rewritten plan (the paper's Figure 2/8-11 view).

        Always includes -- telemetry on or off -- the rewrite strategy,
        the synopsis relations the rewrite reads (sample-table
        provenance), and the *optimized* operator tree with estimated
        per-operator cardinalities.

        With an error/latency budget (``max_rel_error`` / ``max_ms``) the
        plan is resolved against the table's synopsis portfolio exactly as
        :meth:`answer` would, and the output leads with the chosen member,
        its predictions, and the resolution reason.

        With ``analyze=True`` the plan is also *executed*: the operator
        tree is re-rendered with actual rows and inclusive per-operator
        timings, and the per-stage span tree of a traced answer is
        appended -- the ``EXPLAIN ANALYZE`` of the approximate pipeline.
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        base_name = query.base_table_name()
        choice = None
        if max_rel_error is not None or max_ms is not None:
            portfolio = self.portfolio(base_name)
            choice = portfolio.resolve(
                query,
                max_rel_error=max_rel_error,
                max_ms=max_ms,
                version=self._state(base_name).version,
            )
            synopsis = choice.synopsis
        else:
            synopsis = self.synopsis(base_name)
        plan = self._rewrite.plan(query, synopsis.installed)
        logical, __ = self._optimized_plan(
            lower_rewritten(plan, self.catalog),
            base_name,
            plan.strategy,
            synopsis.installed.sample_name,
        )

        installed = synopsis.installed
        tables = installed.sample_name
        if installed.aux_name is not None:
            tables += f", {installed.aux_name}"
        lines = [plan.describe()]
        if choice is not None:
            predicted_error = (
                f"{choice.predicted_rel_error:.3g}"
                if math.isfinite(choice.predicted_rel_error)
                else "inf"
            )
            lines.append(
                f"-- portfolio: chose {choice.member!r} "
                f"({choice.reason}; predicted rel error "
                f"{predicted_error}, predicted "
                f"{choice.predicted_seconds * 1000:.2f} ms, "
                f"{choice.considered} members considered)"
            )
        budget = (
            (max_rel_error, max_ms, choice.member)
            if choice is not None
            else ()
        )
        lines += [
            f"-- synopsis tables: {tables}",
            f"-- sample: {synopsis.sample_size} of "
            f"{synopsis.sample.total_population} rows "
            f"(budget {synopsis.budget}, "
            f"allocation {synopsis.allocation_strategy})",
            f"-- cache: {self._probe_cache_tier(query, base_name, budget)}",
            "-- plan:",
            render_plan(logical, catalog=self.catalog),
        ]
        if analyze:
            collect: Dict[Tuple[int, ...], Tuple[int, float]] = {}
            execute_plan(logical, self.catalog, collect=collect)
            lines.append("-- plan (actual):")
            lines.append(
                render_plan(logical, catalog=self.catalog, actuals=collect)
            )
            trace = self.trace_answer(query).trace
            lines.append("-- analyze:")
            lines.append(trace.render())
        return "\n".join(lines)

    def _probe_cache_tier(
        self, query: Query, base_name: str, budget: Tuple = ()
    ) -> str:
        """Which tier would serve this query right now (counters untouched).

        Probes with the system's *default* guard policy -- what a plain
        :meth:`answer` call would use -- and reports ``exact``,
        ``canonical``, ``rollup (from <source>)``, ``miss``, or
        ``disabled``.
        """
        if self._cache is None and self._reuse is None:
            return "disabled"
        policy = self._resolve_guard(None)
        if self._cache is not None:
            canonical = canonicalize_query(query)
            key = self._cache_key(query, base_name, policy, budget, canonical)
            entry = self._cache.peek(key)
            if entry is not None:
                if entry.sql == render_query(query):
                    return "exact"
                return "canonical"
        if self._reuse is not None and not budget:
            synopsis = self._synopses.get(base_name)
            aggregates = query.aggregates()
            if (
                synopsis is not None
                and aggregates
                and self._bound_method == "chebyshev"
                and query.having is None
                and isinstance(query.from_item, str)
                and all(
                    aggregate.func in _SCALED_AGGREGATES
                    for aggregate in aggregates
                )
            ):
                match = self._reuse.lookup(
                    base_name=base_name,
                    version=self._state(base_name).version,
                    synopsis_signature=self._synopsis_signature(synopsis),
                    where=query.where,
                    group_by=query.group_by,
                    aggregates=aggregates,
                    confidence=self._confidence,
                    count=False,
                )
                if match is not None:
                    return f"rollup (from {match.snapshot.describe_source})"
        return "miss"

    def trace_answer(
        self,
        sql: Union[str, Query],
        guard: Union[GuardPolicy, bool, None] = None,
    ) -> ApproximateAnswer:
        """:meth:`answer` with the tracer force-enabled for this one call.

        The tracer's previous enabled state is restored afterwards, so a
        library user can trace a single query without reconfiguring the
        system.  The returned answer always carries a ``trace``.
        """
        tracer = self.telemetry.tracer
        was_enabled = tracer.enabled
        tracer.enable()
        try:
            return self.answer(sql, guard=guard)
        finally:
            tracer.enabled = was_enabled

    def exact(self, sql: Union[str, Query]) -> Table:
        """Execute the query against the base relation (ground truth).

        The query is lowered and optimized through the same plan IR that
        serves approximate answers, then executed by the physical plan
        executor; aggregate scans run partition-parallel when the system
        has an executor and the relation is large enough.  This is the
        machinery the guard's exact fallback and per-group repairs use, so
        degraded service keeps up with base tables the synopsis was built
        to avoid scanning.
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        self._flush_pending(query.base_table_name())
        try:
            logical = optimize_plan(
                lower_query(query, self.catalog),
                cost_model=self._cost_model(),
            )
            return execute_plan(
                logical,
                self.catalog,
                parallel=self._executor,
                tracer=self.telemetry.tracer,
            )
        except CatalogError as exc:
            raise TableNotRegisteredError(str(exc)) from exc

    def sql_stream(
        self,
        sql: Union[str, Query],
        *,
        chunk_rows: int = 1024,
        until_rel_error: Optional[float] = None,
        deadline: Union["Deadline", float, None] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        """Answer progressively: a stream of converging per-group estimates.

        Online aggregation over the *base* relation (no synopsis): the rows
        are scanned in one uniform random permutation, cut into
        ``chunk_rows``-row chunks, and folded through the mergeable
        group-by partials, so the prefix seen after ``k`` chunks is a
        simple random sample and every emitted
        :class:`~repro.aqua.stream.StreamingAnswer` carries unbiased
        estimates with shrinking CI half-widths (``<alias>_error`` columns,
        same shape as :meth:`answer` results).

        The terminal emission of a run-to-completion stream is computed by
        the batch plan executor over the whole relation, making it
        bit-identical to :meth:`exact` (``final=True``, zero half-widths);
        it is then stored in the answer cache.  ``until_rel_error`` stops
        the stream early once every group's relative half-width is at or
        below the target (``converged=True``, not cached).  A ``deadline``
        (explicit, or ambient via
        :func:`~repro.serve.deadline.deadline_scope`) is checked
        cooperatively between chunks; expiry re-emits the last complete
        answer with ``provenance="partial"`` instead of raising mid-merge,
        unless no answer was completed at all (then
        :class:`~repro.errors.DeadlineExceeded` propagates).

        Raises :class:`~repro.errors.StreamError` before the first chunk
        for non-streamable queries (nested FROM, no aggregates) or invalid
        knobs.  See ``docs/STREAMING.md`` for the full emission contract.
        """
        from .stream import stream_answers

        return stream_answers(
            self,
            sql,
            chunk_rows=chunk_rows,
            until_rel_error=until_rel_error,
            deadline=deadline,
            rng=rng,
        )

    def _attach_error_bounds(
        self, query: Query, synopsis: Synopsis, result: Table
    ) -> Tuple[Table, Optional[ReuseSnapshot], Optional[np.ndarray]]:
        """Attach ``<alias>_error`` half-width columns to a plan result.

        Expansion-servable queries (Chebyshev bounds, SUM/COUNT/AVG only,
        GROUP BY within the stratification columns) take the snapshot
        path: one pass over the sample records per-stratum moments
        (:class:`~repro.aqua.reuse.ReuseSnapshot`), and *both* the served
        values and the half-widths are finalized from those moments --
        the exact arithmetic a future roll-up of this snapshot will run,
        which is what makes roll-up answers bit-identical to direct ones.
        Everything else falls back to the per-aggregate
        :func:`~repro.estimators.point.estimate` path.

        Returns ``(result, snapshot, support)``: the snapshot (for the
        roll-up index) and the per-row sample support read off its roll-up
        (for the guard), both ``None`` on the fallback path.
        """
        snapshot = self._reuse_snapshot(query, synopsis)
        if snapshot is not None:
            result, support = self._snapshot_bounds(query, snapshot, result)
            return result, snapshot, support
        group_by = list(query.group_by)
        keys = self._result_keys(result, query.group_by_aliases())
        for aggregate in query.aggregates():
            if aggregate.func not in _SCALED_AGGREGATES:
                continue
            use_hoeffding = (
                self._bound_method == "hoeffding"
                and aggregate.func in ("sum", "count")
                and set(group_by) <= set(synopsis.grouping_columns)
            )
            halfwidths = np.full(result.num_rows, np.nan)
            if use_hoeffding:
                hoeffding = self._hoeffding_halfwidths(
                    query, synopsis, aggregate, group_by
                )
                for i, key in enumerate(keys):
                    halfwidths[i] = hoeffding.get(key, np.nan)
            else:
                estimates = estimate(
                    synopsis.sample,
                    aggregate.func,
                    None if aggregate.func == "count" else aggregate.expr,
                    predicate=query.where,
                    group_by=group_by,
                )
                for i, key in enumerate(keys):
                    group_estimate = estimates.get(key)
                    if (
                        group_estimate is not None
                        and group_estimate.variance >= 0
                    ):
                        halfwidths[i] = chebyshev_halfwidth(
                            group_estimate.std_error, self._confidence
                        )
            self._observe_halfwidths(
                halfwidths, result.column(aggregate.alias)
            )
            result = result.with_column(
                Column(f"{aggregate.alias}_error", ColumnType.FLOAT), halfwidths
            )
        return result, None, None

    def _observe_halfwidths(
        self, halfwidths: np.ndarray, values: np.ndarray
    ) -> None:
        """Record each group's relative half-width (metrics enabled only)."""
        metrics = self.telemetry.metrics
        if not metrics.enabled:
            return
        halfwidth_histogram = metrics.histogram(
            "aqua_relative_halfwidth",
            "Error-bound half-width over estimate magnitude, per "
            "answer group and aggregate.",
            buckets=(
                0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                0.25, 0.5, 1.0, 2.5,
            ),
        )
        for halfwidth, value in zip(halfwidths.tolist(), values.tolist()):
            if not math.isfinite(halfwidth):
                continue
            relative = relative_halfwidth(halfwidth, float(value))
            if math.isfinite(relative):
                halfwidth_histogram.observe(relative)

    def _reuse_snapshot(
        self, query: Query, synopsis: Synopsis
    ) -> Optional[ReuseSnapshot]:
        """Build per-stratum moments when the query is expansion-servable.

        ``None`` when the query needs the per-aggregate estimate path
        (Hoeffding bounds, non-scaled aggregates, HAVING, nested FROM, or a
        GROUP BY outside the stratification columns).  Whether the roll-up
        tier is enabled plays no part: it only decides if the snapshot is
        registered afterwards.
        """
        if self._bound_method != "chebyshev":
            return None
        if query.having is not None or not isinstance(query.from_item, str):
            return None
        aggregates = query.aggregates()
        if not aggregates or any(
            aggregate.func not in _SCALED_AGGREGATES
            for aggregate in aggregates
        ):
            return None
        if not set(query.group_by) <= set(synopsis.grouping_columns):
            return None
        version = self._state(synopsis.base_name).version
        group_text = ", ".join(query.group_by) if query.group_by else "()"
        source = (
            f"{synopsis.base_name}@v{version} "
            f"{synopsis.allocation_strategy}/{synopsis.rewrite_strategy} "
            f"GROUP BY ({group_text})"
        )
        return ReuseSnapshot.build(
            synopsis.sample,
            query.where,
            aggregates,
            base_name=synopsis.base_name,
            version=version,
            synopsis_signature=self._synopsis_signature(synopsis),
            confidence=self._confidence,
            entry_group_by=tuple(query.group_by),
            describe_source=source,
        )

    def _snapshot_bounds(
        self, query: Query, snapshot: ReuseSnapshot, result: Table
    ) -> Tuple[Table, np.ndarray]:
        """Finalize values *and* half-widths from the snapshot's moments.

        Overwrites the plan-computed aggregate columns with the moment
        finalization (the two agree to floating-point summation order;
        serving the finalized values is what guarantees roll-up answers
        reproduce direct ones bit-for-bit) and appends the ``_error``
        columns, preserving the legacy layout and the relative-half-width
        histogram.  Result rows are matched to the roll-up's groups by
        integer code; a row the roll-up does not hold keeps its plan value
        and gets a NaN half-width.  Returns the table and each row's
        qualifying sample tuples.
        """
        rollup = snapshot.finalize(query.group_by, query.aggregates())
        found, group, support = self._rollup_rows(
            rollup, result, query.group_by_aliases()
        )
        replaced = result.columns()
        errors: List[Tuple[str, np.ndarray]] = []
        for aggregate in query.aggregates():
            values = np.array(
                result.column(aggregate.alias), dtype=np.float64
            )
            values[found] = rollup.values[aggregate.alias][group]
            halfwidths = np.full(result.num_rows, np.nan)
            halfwidths[found] = rollup.halfwidths[aggregate.alias][group]
            self._observe_halfwidths(halfwidths, values)
            replaced[aggregate.alias] = values
            errors.append((f"{aggregate.alias}_error", halfwidths))
        result = Table(result.schema, replaced)
        for name, halfwidths in errors:
            result = result.with_column(
                Column(name, ColumnType.FLOAT), halfwidths
            )
        return result, support

    def _hoeffding_halfwidths(
        self, query: Query, synopsis: Synopsis, aggregate, group_by
    ) -> Dict[Tuple, float]:
        """Per-answer-group Hoeffding half-widths for a SUM/COUNT estimate.

        Uses exact per-stratum value ranges computed from the base table
        (Aqua precomputes such hints with the synopsis).  Ranges are
        zero-extended because the WHERE predicate zeroes out non-qualifying
        tuples in the estimator.
        """
        state = self._state(synopsis.base_name)
        base = state.table
        if aggregate.func == "count":
            values = np.ones(base.num_rows)
        else:
            values = np.asarray(
                aggregate.expr.evaluate(base), dtype=np.float64
            )
        ids, keys = finest_group_ids(base, synopsis.grouping_columns)
        num = len(keys)
        from ..engine.aggregates import grouped_reduce

        lows = np.minimum(grouped_reduce("min", values, ids, num), 0.0)
        highs = np.maximum(grouped_reduce("max", values, ids, num), 0.0)
        ranges = highs - lows

        # Collect strata per answer group.
        per_answer: Dict[Tuple, List[int]] = {}
        for stratum_index, key in enumerate(keys):
            answer = project_key(
                key, synopsis.grouping_columns, group_by
            )
            per_answer.setdefault(answer, []).append(stratum_index)

        sample = synopsis.sample
        out: Dict[Tuple, float] = {}
        for answer, stratum_indices in per_answer.items():
            r, n, m = [], [], []
            for index in stratum_indices:
                stratum = sample.strata.get(keys[index])
                if stratum is None or stratum.sample_size == 0:
                    continue
                r.append(float(ranges[index]))
                n.append(float(stratum.population))
                m.append(int(stratum.sample_size))
            if m:
                out[answer] = hoeffding_halfwidth_stratified_sum(
                    r, n, m, self._confidence
                )
        return out

    # -- incremental maintenance -------------------------------------------

    def enable_maintenance(self, name: str) -> None:
        """Switch a table's synopsis to streaming maintenance (Section 6).

        The existing base rows are streamed through the strategy's
        maintainer once; subsequent :meth:`insert` calls update the
        maintainer at O(1)-ish cost without touching the base relation.
        """
        state = self._state(name)
        strategy_name = getattr(self._allocation, "name", "congress")
        maintainer = maintainer_for(
            strategy_name,
            state.table.schema,
            state.grouping_columns,
            self._budget,
            self._rng,
        )
        maintainer.insert_table(state.table)
        state.maintainer = maintainer

    def insert(self, name: str, row: Sequence) -> None:
        """Insert one tuple into a table (buffered) and its maintainer."""
        state = self._state(name)
        with state.lock:
            state.pending_rows.append(tuple(row))
            state.inserts_since_refresh += 1
            self._bump_version(name, state)
            if state.maintainer is not None:
                state.maintainer.insert(row)
                state.maintainer.inserts_seen += 1
        metrics = self.telemetry.metrics
        if metrics.enabled:
            metrics.counter(
                "aqua_inserts_total",
                "Tuples inserted through AquaSystem.insert(), per table.",
                ("table",),
            ).inc(table=name)
            metrics.gauge(
                "aqua_pending_rows",
                "Inserted rows buffered but not yet flushed to the base "
                "relation.",
                ("table",),
            ).set(len(state.pending_rows), table=name)
        self._maybe_auto_refresh(name)

    def insert_many(self, name: str, rows: Sequence[Sequence]) -> None:
        for row in rows:
            self.insert(name, row)

    def refresh_synopsis(self, name: str, trigger: str = "manual") -> Synopsis:
        """Re-materialize the synopsis from the maintainer's current state.

        Args:
            name: the table whose synopsis to refresh.
            trigger: provenance of the refresh for telemetry: ``"manual"``
                (API call), ``"auto"`` (drift policy), or ``"guard"``
                (stale-synopsis escalation).
        """
        state = self._state(name)
        metrics = self.telemetry.metrics
        start = time.perf_counter()
        with self.telemetry.tracer.span(
            "refresh_synopsis", table=name, trigger=trigger
        ):
            if state.maintainer is None:
                # No maintainer: fall back to a full rebuild from base data.
                self._flush_pending(name)
                synopsis = self.build_synopsis(name)
            else:
                maintained = state.maintainer.snapshot()
                maintained = subsample_to_budget(
                    maintained, self._budget, self._rng
                )
                synopsis = self._install(name, maintained.to_stratified())
        if metrics.enabled:
            metrics.counter(
                "aqua_refreshes_total",
                "Synopsis refreshes, by table and trigger "
                "(manual/auto/guard).",
                ("table", "trigger"),
            ).inc(table=name, trigger=trigger)
            metrics.histogram(
                "aqua_refresh_seconds",
                "Wall time of one synopsis refresh.",
                ("table",),
            ).observe(time.perf_counter() - start, table=name)
        return synopsis

    def _flush_pending(self, name: str) -> None:
        state = self._tables.get(name)
        if state is None:
            return
        with state.lock:
            if not state.pending_rows:
                return
            flushed = len(state.pending_rows)
            with self.telemetry.tracer.span(
                "flush", table=name, rows=flushed
            ):
                appended = Table.from_rows(
                    state.table.schema, state.pending_rows
                )
                state.table = state.table.concat(appended)
                state.pending_rows.clear()
                self._bump_version(name, state)
                self.catalog.register(name, state.table, replace=True)
        metrics = self.telemetry.metrics
        if metrics.enabled:
            metrics.counter(
                "aqua_flushes_total",
                "Pending-row flushes into the base relation, per table.",
                ("table",),
            ).inc(table=name)
            metrics.counter(
                "aqua_flushed_rows_total",
                "Rows moved from the pending buffer to the base relation.",
                ("table",),
            ).inc(flushed, table=name)
            metrics.gauge(
                "aqua_pending_rows",
                "Inserted rows buffered but not yet flushed to the base "
                "relation.",
                ("table",),
            ).set(0, table=name)
