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

import functools
import math
import threading
import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.allocation import AllocationStrategy, build_sample
from ..core.congress import Congress
from ..engine.catalog import Catalog, CatalogError
from ..engine.executor import ParallelConfig, ParallelExecutor, execute_on_table
from ..engine.groupby import factorize, key_tuples, rows_in_groups
from ..engine.predicates import Predicate
from ..engine.query import Presentation, Query
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
from ..estimators.errors import DEFAULT_CONFIDENCE, relative_halfwidth
from ..estimators.moments import ESTIMABLE_AGGREGATES, SampleMoments
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
from ..plan.canonical import predicate_conjuncts
from ..sampling.groups import GroupKey, group_members
from ..maintenance.base import SampleMaintainer
from ..maintenance.onepass import maintainer_for, subsample_to_budget
from ..rewrite.base import RewriteStrategy, check_rewritable
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
from .reuse import ReuseSnapshot, RollupIndex, lay_out
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


def promised_rel_error_by_alias(result: Table) -> Dict[str, float]:
    """Worst finite per-group relative half-width, per aggregate alias.

    Zero-valued and non-finite groups are skipped (their relative error is
    undefined), and so are string values that do not parse as numbers; an
    alias absent from the returned dict made no finite promise at all.
    """
    promised: Dict[str, float] = {}
    for name in result.schema.names:
        if not name.endswith("_error"):
            continue
        alias = name[: -len("_error")]
        if alias not in result.schema:
            continue
        halfwidths = result.column(name).astype(np.float64)
        values = result.column(alias)
        if values.dtype.kind not in "biuf":  # text reads as float() reads it
            values = [_float_or_nan(text) for text in values.tolist()]
        values = np.asarray(values, dtype=np.float64)
        usable = np.isfinite(halfwidths) & np.isfinite(values) & (values != 0)
        if usable.any():
            with np.errstate(over="ignore"):
                worst = float(np.max(halfwidths[usable] / np.abs(values[usable])))
            if worst >= 0.0:
                promised[alias] = worst
    return promised


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


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
        elapsed_seconds: wall-clock time of the answer's computation: the
            sample's moments and their finalization, or the rewritten plan.
        version: the table's data version, read once with the synopsis it
            was computed from; a cached answer is stored under it.
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
    version: int
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


def _fmt_pct(value: float) -> str:
    """Render a percentage, degrading NaN/inf to ``n/a``."""
    return f"{value:.2f}%" if math.isfinite(value) else "n/a"


@dataclass(frozen=True)
class _CacheEntry:
    """An answer-cache value: a stage query's answer, in stage layout.

    Entries are keyed by the stage query's alias-insensitive canonical
    fingerprint, so a hit may come from a differently-spelled query.
    ``sql`` (the rendered stage query the entry was stored under)
    distinguishes *exact* hits from *canonical* ones; ``group_by`` lets a
    canonical hit re-sort rows to the probe's GROUP BY order.  A canonical
    hit is renamed to the probe's stage columns
    (:class:`~repro.engine.query.Presentation`) before anything else sees
    it.
    """

    answer: ApproximateAnswer
    sql: str
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
    # One registered table.  Re-registration replaces the whole state, so
    # the replaced synopsis and portfolio go with the data they came from.
    table: Table
    grouping_columns: Tuple[str, ...]
    synopsis: Optional[Synopsis] = None
    portfolio: Optional[SynopsisPortfolio] = None
    maintainer: Optional[SampleMaintainer] = None
    pending_rows: List[Tuple] = field(default_factory=list)
    inserts_since_refresh: int = 0
    rows_at_refresh: int = 0
    refresh_policy: Optional[RefreshPolicy] = None
    # Monotonic data version: advanced only by AquaSystem._bump_version,
    # on every insert, flush, synopsis or portfolio (re)build and
    # re-registration.  Every cache key embeds it, and the bump drops every
    # entry keyed to the old one, so nothing built for replaced data is
    # served -- or kept alive -- after a mutation.
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
        rewrite_strategy: lays out the installed synopsis relations and
            plans :meth:`explain` and the paper's Experiments 3-4; every
            answer's values come from the sample's moments whatever the
            strategy.  Defaults to :class:`NestedIntegrated`.
        confidence: confidence level for error bounds (Aqua default 90%).
        bound_method: ``"chebyshev"`` (default; uses the stratified
            variance estimate) or ``"hoeffding"`` (distribution-free, uses
            per-stratum value ranges from the base table -- applies to
            SUM/COUNT grouped within the stratification columns; AVG and
            other groupings fall back to Chebyshev).
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
            (:attr:`plan_cache`, filled by :meth:`explain`) is always on.
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
        self._query_logs: Dict[str, QueryLog] = {}
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
        self._executor: Optional[ParallelExecutor] = None
        # ``None`` honours REPRO_PARALLEL_WORKERS before the defaults.
        self.set_parallel(
            (ParallelConfig.from_env() or True) if parallel is None else parallel
        )
        self._cache: Optional[AnswerCache] = None
        self._reuse: Optional[RollupIndex] = None
        self.set_cache(cache)
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
        """The optimized-plan cache :meth:`explain` fills (``answer()``
        runs no plan)."""
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
        if previous is None:
            self._tables[name] = state
        else:
            # A fresh state drops the replaced synopsis and portfolio; the
            # version sequence continues, under the old state's lock, so
            # nothing computed from the replaced data is stored after this.
            with previous.lock:
                state.version = previous.version
                self._bump_version(name, state)
                self._tables[name] = state
        if build:
            return self.build_synopsis(name)
        return None

    def build_synopsis(self, name: str) -> Synopsis:
        """(Re)build the sample synopsis for a registered table.

        Pending inserts are flushed into the base relation first, so the
        sample covers every row the synopsis is recorded as covering.
        """
        state = self._state(name)
        start = time.perf_counter()
        with self.telemetry.tracer.span("build_synopsis", table=name):
            (sample,) = self._build_samples(
                name, [(state.grouping_columns, self._allocation, self._budget)]
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

    def _build_samples(
        self,
        name: str,
        requests: Sequence[Tuple[Tuple[str, ...], AllocationStrategy, float]],
    ) -> List[StratifiedSample]:
        """Draw one sample per ``(grouping, strategy, budget)``, in order.

        Pending inserts are flushed first.  Each distinct grouping's
        members are listed by one pass over the base relation, run
        partitioned when an executor is configured, and every sample over
        that grouping is counted, allocated and drawn from those lists.
        The merged lists equal a serial pass's, so the drawn samples are
        bit-for-bit the same either way.
        """
        self._flush_pending(name)
        table = self._state(name).table
        members: Dict[Tuple[str, ...], Dict[GroupKey, np.ndarray]] = {}
        samples = []
        for grouping, strategy, budget in requests:
            if grouping not in members:
                for column in grouping:
                    table.schema.column(column)  # typed error on bad columns
                members[grouping] = group_members(
                    table, grouping, self._executor
                )
            samples.append(
                build_sample(
                    strategy,
                    table,
                    grouping,
                    budget,
                    rng=self._rng,
                    members=members[grouping],
                )
            )
        return samples

    def _synopsis(
        self,
        name: str,
        relation: str,
        sample: StratifiedSample,
        strategy: AllocationStrategy,
        budget: float,
    ) -> Synopsis:
        """Install ``sample``'s relations under ``relation`` and wrap them.

        The installed handle's ``base_name`` stays the real table even when
        ``relation`` is a portfolio member's decorated name: the rewriter
        validates queries against it.
        """
        installed = self._rewrite.install(
            sample, relation, self.catalog, replace=True
        )
        return Synopsis(
            base_name=name,
            grouping_columns=tuple(sample.grouping_columns),
            allocation_strategy=getattr(strategy, "name", "custom"),
            rewrite_strategy=self._rewrite.name,
            budget=budget,
            sample=sample,
            installed=dataclass_replace(installed, base_name=name),
        )

    def _install(self, name: str, sample: StratifiedSample) -> Synopsis:
        synopsis = self._synopsis(
            name, name, sample, self._allocation, self._budget
        )
        state = self._state(name)
        with state.lock:
            state.synopsis = synopsis
            state.inserts_since_refresh = 0
            state.rows_at_refresh = state.table.num_rows + len(
                state.pending_rows
            )
            self._bump_version(name, state)
        return synopsis

    def _bump_version(self, name: str, state: _TableState) -> None:
        """Advance the table's data version: the one invalidation hook.

        Drops the table's entries from all four version-keyed stores --
        the answer cache, the plan cache, the roll-up index and the
        portfolio's budget resolutions -- so nothing the system holds
        references a replaced sample.  Keys keep the version: it still
        carries correctness against a concurrent writer.
        """
        with state.lock:
            state.version += 1
            if self._cache is not None:
                self._cache.invalidate(name)
            self._plan_cache.invalidate(name)
            if self._reuse is not None:
                self._reuse.invalidate(name)
            if state.portfolio is not None:
                state.portfolio.invalidate_resolutions()

    def _store_if_current(
        self, name: str, version: int, store: Callable[[], None]
    ) -> None:
        """Run ``store`` unless the table has moved past ``version``.

        The check and the store run under the state lock, which every bump
        holds, so nothing is stored for data a bump has already dropped.
        """
        state = self._tables.get(name)
        if state is None:
            return
        with state.lock:
            if self._tables.get(name) is state and state.version == version:
                store()

    def synopsis(self, name: str) -> Synopsis:
        synopsis = self._state(name).synopsis
        if synopsis is None:
            raise SynopsisMissingError(f"no synopsis built for table {name!r}")
        return synopsis

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
        portfolio = self._state(name).portfolio
        if portfolio is None:
            raise SynopsisMissingError(
                f"no portfolio built for table {name!r}; call "
                "build_portfolio() before answering with "
                "max_rel_error/max_ms budgets"
            )
        return portfolio

    def has_portfolio(self, name: str) -> bool:
        state = self._tables.get(name)
        return state is not None and state.portfolio is not None

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
        existing = state.portfolio
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
            samples = self._build_samples(
                name,
                [
                    (
                        tuple(spec.grouping_columns or state.grouping_columns),
                        spec.allocation,
                        spec.budget,
                    )
                    for spec in specs
                ],
            )
            rows_at_build = state.table.num_rows + len(state.pending_rows)
            for spec, sample in zip(specs, samples):
                synopsis = self._synopsis(
                    name,
                    f"{name}__pf_{spec.name}",
                    sample,
                    spec.allocation,
                    spec.budget,
                )
                portfolio.add_member(
                    spec, synopsis, rows_at_build=rows_at_build
                )
        with state.lock:
            state.portfolio = portfolio
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

    def _observe_portfolio_answer(
        self,
        table: str,
        choice: PortfolioChoice,
        answer: ApproximateAnswer,
        max_rel_error: Optional[float],
    ) -> None:
        """Selection metrics, prediction-miss accounting, model feedback."""
        portfolio = self._state(table).portfolio
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
        synopsis = state.synopsis
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

        The structural part is the sample's remembered verdict (a fresh
        list each call); the coverage line is worked out per call, since
        the rows it is measured against move.  ``expected_rows`` is the
        base row count this synopsis is supposed to cover: the table's
        ``rows_at_refresh`` for the primary synopsis (the default), a
        member's ``rows_at_build`` for portfolio members (which may
        legitimately differ from the primary's bookkeeping).
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

    def _refresh_due(self, name: str) -> bool:
        """Whether the table's refresh policy asks for a refresh now."""
        state = self._tables.get(name)
        return (
            state is not None
            and state.refresh_policy is not None
            and state.synopsis is not None
            and state.refresh_policy.should_refresh(
                state.inserts_since_refresh, state.rows_at_refresh
            )
        )

    def _maybe_auto_refresh(self, name: str) -> None:
        if self._refresh_due(name):
            self.refresh_synopsis(name, trigger="auto")

    @staticmethod
    def _over_staleness_limit(
        policy: Optional[GuardPolicy], stale: int
    ) -> bool:
        return (
            policy is not None
            and policy.staleness_limit is not None
            and stale > policy.staleness_limit
        )

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
        ``cache_probe``, ``validate``, ``rollup_probe``, ``moments``,
        ``finalize``, ``guard``, ``cache_store``) account for the
        pipeline's wall time; when the metrics registry is enabled, query
        counters, per-stage latency histograms, and guard provenance
        counters are updated.  The query is always recorded in the table's
        :meth:`query_log`.

        The pipeline honours an optional per-query *deadline*: a typed
        :class:`~repro.errors.DeadlineExceeded` (tagged with the stage or
        plan operator it died in) aborts the answer cooperatively -- stage
        boundaries here (the guard's repair scan included), per-operator in
        the plan executor of its exact fallback, per-partition in the
        parallel scanner.  With
        ``deadline=None``, any deadline installed by an enclosing
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
                        stage, staged, present = self._answer_pipeline(
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
                            "the query nests predicates deeper than the "
                            "interpreter's recursion limit allows"
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
        answer = (
            staged
            if present is None
            else dataclass_replace(staged, result=present(staged.result))
        )
        if root.is_recording:
            answer.trace = QueryTrace(root)
        answer.trace_id = trace_id
        wall = time.perf_counter() - wall_start if measure else 0.0
        if telemetry.metrics.enabled:
            self._observe_answer(answer, wall)
        self._finish_answer(
            sql, answer, trace_id, wall, had_deadline, audit, stage, staged
        )
        return answer

    def _finish_answer(
        self,
        sql: Union[str, Query],
        answer: ApproximateAnswer,
        trace_id: Optional[str],
        wall: float,
        had_deadline: bool,
        audit: bool,
        stage: Query,
        staged: ApproximateAnswer,
    ) -> None:
        """Post-answer observability: SLOs, event log, trace store, audit.

        The auditor is offered the stage query and its stage-layout
        answer, so it finds every group key by its ``GROUP BY`` name."""
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
                synopsis_version=answer.version,
                allocation=getattr(
                    self._allocation, "name", type(self._allocation).__name__
                ),
                strategy=self._rewrite.name,
                provenance=answer.provenance_counts,
                promised_rel_error=promised_rel_error_by_alias(answer.result),
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
            self._auditor.offer(stage, staged, event)

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

    def _cache_key(
        self,
        query: Query,
        base_name: str,
        policy: Optional[GuardPolicy],
        version: int,
        budget: Tuple = (),
        canonical=None,
    ):
        """The answer-cache key for this (stage query, serving
        configuration).

        ``None`` when caching is disabled.  The key embeds the data
        ``version`` -- lookups pass the table's current one, stores the
        answer's own -- the query's alias-insensitive canonical
        fingerprint (see :func:`repro.plan.canonicalize_query` -- predicate
        spelling, output aliases, and GROUP BY column order no longer
        fragment the cache), and every serve-time knob that changes the
        answer (guard policy -- hashable because it is frozen --
        confidence, bound method, and the budget tuple ``(max_rel_error,
        max_ms, chosen member)`` for portfolio-resolved answers).

        Pass a precomputed ``canonical`` (:class:`~repro.plan.CanonicalQuery`)
        to avoid re-canonicalizing between the lookup and the store.
        """
        if self._cache is None:
            return None
        if canonical is None:
            canonical = canonicalize_query(query)
        return (
            base_name,
            version,
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
        self, lowered, base_name: str, version: int, strategy: str, relation
    ):
        """Optimize :meth:`explain`'s lowered plan, memoized in the plan
        cache.

        The plan is canonicalized first and keyed by ``(table, version,
        strategy, relation, fingerprint)``: the canonical-plan digest
        (:func:`repro.plan.canonicalize`) lets trivially-equivalent
        spellings (predicate order, folded constants) share one optimized
        plan, and the data ``version`` covers every mutation that can
        change synopsis relations, so a stale plan is never replayed
        against rebuilt samples; a plan is kept only while its version is
        current.  ``relation`` is the sample relation the rewrite reads
        (portfolio members of one table plan the same query differently);
        ``strategy`` is the rewrite strategy's name.  Optimization is
        cost-gated against catalog cardinalities (see :meth:`_cost_model`).
        """
        lowered, fingerprint = canonicalize(lowered)
        key = (base_name, version, strategy, relation, fingerprint)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        logical = optimize_plan(lowered, cost_model=self._cost_model())
        self._store_if_current(
            base_name, version, lambda: self._plan_cache.put(key, logical)
        )
        return logical

    def _answer_pipeline(
        self,
        sql: Union[str, Query],
        guard: Union[GuardPolicy, bool, None],
        tracer: Tracer,
        root,
        max_rel_error: Optional[float] = None,
        max_ms: Optional[float] = None,
        use_synopsis: Optional[str] = None,
    ) -> Tuple[Query, ApproximateAnswer, Optional[Presentation]]:
        """Cache front-end around the staged pipeline.

        Binds the query once (:meth:`~repro.engine.query.Query.bind`):
        every tier and stage runs on the stage query, and the answer comes
        back in stage layout with the presentation it still needs (``None``
        when it is already in the user's columns).

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
            user = parse_query(sql) if isinstance(sql, str) else sql
            query, present = user.bind()
            policy = self._resolve_guard(guard)
            base_name = query.base_table_name()
            state = self._state(base_name)
            self.query_log(base_name).record(user)
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
            key = self._cache_key(
                query, base_name, policy, state.version, budget, canonical
            )
            entry = self._cache.get(key) if key is not None else None
        if key is not None:
            if entry is not None:
                # Shallow copy: the caller attaches this call's trace and
                # trace id to the returned object, which must not leak
                # into the cache.  A canonical hit comes back in the
                # probe's stage columns whatever spelling stored it.
                answer, tier = self._reconcile_cached(entry, query)
                root.set(cache=tier)
                self._cache.record_tier_hit(tier)
                return query, answer, present
            root.set(cache="miss")

        answer = self._answer_stages(
            query,
            policy,
            base_name,
            state,
            tracer,
            choice=choice,
            budgets=(max_rel_error, max_ms),
        )
        if answer.cache_tier == "rollup":
            root.set(cache="rollup")
            if key is not None:
                self._cache.record_tier_hit("rollup")
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
        return query, answer, present

    def _store_answer(
        self,
        answer: ApproximateAnswer,
        query: Query,
        base_name: str,
        policy: Optional[GuardPolicy],
        budget: Tuple,
        canonical,
    ) -> None:
        """Cache a clean answer under the version that produced it, unless
        a mutation has moved the table past that version meanwhile."""
        if answer.guard is not None and answer.guard.degraded:
            return
        with self.telemetry.tracer.span("cache_store"):
            key = self._cache_key(
                query, base_name, policy, answer.version, budget, canonical
            )
            entry = _CacheEntry(
                answer=dataclass_replace(answer, trace=None),
                sql=render_query(query),
                group_by=query.group_by,
            )
            self._store_if_current(
                base_name, answer.version, lambda: self._cache.put(key, entry)
            )

    def _reconcile_cached(
        self, entry: _CacheEntry, query: Query
    ) -> Tuple[ApproximateAnswer, str]:
        """Serve a fingerprint hit on a stage query, still in stage layout.

        An *exact* hit (same rendered stage query) is returned as-is.  A
        *canonical* hit -- same semantics, different aliases or GROUP BY
        column order -- is renamed to the probe's stage columns and has its
        rows re-sorted into the probe's group order when that differs (the
        fingerprint keeps the order whenever ORDER BY or LIMIT depends on
        it), so the served table is indistinguishable from direct
        execution of the probe.
        """
        answer = entry.answer
        tier = "exact" if entry.sql == render_query(query) else "canonical"
        result = answer.result
        if tier == "canonical":
            result = Presentation(query, len(query.select))(result)
            if entry.group_by != query.group_by:
                result = result.sort_by(query.group_by)
        return (
            dataclass_replace(
                answer,
                result=result,
                trace=None,
                cache_hit=True,
                cache_tier=tier,
            ),
            tier,
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

    def _rollup_match(
        self, query: Query, base_name: str, synopsis: Synopsis, version: int,
        count=True,
    ):
        """The roll-up index's snapshot of ``version`` subsuming ``query``,
        or ``None`` (``count=False`` leaves the index's counters and LRU
        order alone)."""
        return self._reuse.lookup(
            base_name=base_name,
            version=version,
            synopsis_signature=self._synopsis_signature(synopsis),
            where=query.where,
            group_by=query.group_by,
            aggregates=query.aggregates(),
            confidence=self._confidence,
            count=count,
        )

    def _serve_moments(
        self,
        query: Query,
        state: _TableState,
        synopsis: Synopsis,
        snapshot: ReuseSnapshot,
        policy: Optional[GuardPolicy],
        stale: int,
        version: int,
        extra_predicate: Optional[Predicate] = None,
        started: Optional[float] = None,
    ) -> ApproximateAnswer:
        """Answer a query from the sample's moments.

        The one serving step of the miss path and the roll-up tier:
        ``snapshot`` is finalized to the query's GROUP BY (on a roll-up
        hit, after ``extra_predicate`` selects whole strata), laid out,
        and judged by the guard with each row's sample support.
        ``started`` is when the moments' computation began (default: now).
        """
        if started is None:
            started = time.perf_counter()
        check_deadline("finalize")
        with self.telemetry.tracer.span("finalize"):
            rollup = snapshot.moments.finalize(
                query.group_by,
                query.aggregates(),
                self._confidence,
                extra_predicate,
            )
            result, order = lay_out(
                query, state.table.schema, rollup.key_arrays, rollup.values,
                rollup.halfwidths,
            )
            support = rollup.support[order]
            self._observe_halfwidths(query, result)
        return self._bounded_answer(
            query,
            synopsis,
            result,
            time.perf_counter() - started,
            policy,
            stale,
            version,
            support,
        )

    def _tag_rollup(
        self, answer: ApproximateAnswer, policy: Optional[GuardPolicy], match
    ) -> ApproximateAnswer:
        """Mark an answer served from the roll-up tier's ``match``.

        A hit merges a finer cached entry's per-stratum aggregate states
        down to the probe's GROUP BY (the paper's Section 6 datacube
        construction run in reverse) through :meth:`_serve_moments`, the
        step every direct answer takes -- so the two agree bit
        for bit.  Clean synopsis provenance is re-tagged ``rollup`` and
        the source entry recorded in ``reused_from``.  Repaired/exact
        groups keep their tags (the guard really did that work), and
        :attr:`GuardReport.degraded` treats ``rollup`` as clean, so a
        roll-up-served answer is cacheable exactly when its direct-path
        twin would be.
        """
        answer.cache_tier = "rollup"
        answer.reused_from = match.snapshot.describe_source
        if match.extra_conjuncts:
            answer.reused_from += (
                f" sliced by ({' AND '.join(match.extra_conjuncts)})"
            )
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

    def _serving_view(
        self, state: _TableState, base_name: str, choice
    ) -> Tuple[Synopsis, int, int]:
        """``(synopsis, version, stale inserts)`` for one answer, read
        together under the state lock."""
        with state.lock:
            if choice is None:
                synopsis = self.synopsis(base_name)
                stale = state.inserts_since_refresh
            else:
                rows = state.table.num_rows + len(state.pending_rows)
                synopsis = choice.synopsis
                stale = max(rows - choice.rows_at_build, 0)
            return synopsis, state.version, stale

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
        """The staged answer pipeline for a stage query, one span per stage.

        ``validate`` is the one gate every answer passes: auto-refresh,
        staleness and the sample's (remembered) structural verdict.  It
        ends holding the answer's one :meth:`_serving_view`, whose version
        feeds the roll-up lookup, the moments and the answer itself.
        After it, a query the rewrites accept
        (:func:`~repro.rewrite.base.check_rewritable`) is answered from the
        sample's moments (:meth:`_serve_moments`): a roll-up hit's when the
        index holds a subsuming snapshot (``rollup_probe``), else its own
        (``moments``).  Each stage starts with an ambient-deadline check,
        so an expired query dies at the next stage boundary with the stage
        name on the typed error; the plan/parallel executors check at
        finer grain (per operator, per partition) inside the guard's base
        scans.

        With a portfolio ``choice`` the chosen member replaces the primary
        synopsis throughout: its sample answers the query, its build-time
        row count anchors staleness and coverage validation, and a
        stale-triggered refresh rebuilds the *portfolio* (re-resolving the
        budgets against the fresh members) rather than the primary.
        """
        check_deadline("validate")
        with tracer.span("validate") as validate_span:
            self._maybe_auto_refresh(base_name)
            synopsis, version, stale = self._serving_view(
                state, base_name, choice
            )
            validate_span.set(stale_inserts=stale)
            if self._over_staleness_limit(policy, stale):
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
                    else:
                        self.refresh_synopsis(base_name, trigger="guard")
                    synopsis, version, stale = self._serving_view(
                        state, base_name, choice
                    )
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
                        version=version,
                    )
                # "serve": accept the staleness and continue.

            if policy is not None:
                validate_span.set(
                    structural=(
                        "remembered"
                        if synopsis.sample.frame.judged
                        else "walked"
                    )
                )
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
                        version=version,
                        issues=tuple(issues),
                    )

        check_rewritable(query, base_name)
        if choice is None and self._reuse is not None:
            with tracer.span("rollup_probe"):
                match = self._rollup_match(query, base_name, synopsis, version)
            if match is not None:
                answer = self._serve_moments(
                    query,
                    state,
                    synopsis,
                    match.snapshot,
                    policy,
                    stale,
                    version,
                    extra_predicate=match.extra_predicate,
                )
                return self._tag_rollup(answer, policy, match)
        check_deadline("moments")
        started = time.perf_counter()
        with tracer.span("moments"):
            snapshot = self._moments(query, state, synopsis, version)
        answer = self._serve_moments(
            query, state, synopsis, snapshot, policy, stale, version,
            started=started,
        )
        if (
            self._reuse is not None
            and snapshot.moments.strata_cells
            and (answer.guard is None or not answer.guard.degraded)
        ):
            self._store_if_current(
                base_name, version, lambda: self._reuse.register(snapshot)
            )
        return answer

    def _bounded_answer(
        self,
        query: Query,
        synopsis: Synopsis,
        result: Table,
        elapsed: float,
        policy: Optional[GuardPolicy],
        stale: int,
        version: int,
        support: np.ndarray,
    ) -> ApproximateAnswer:
        """A freshly computed result with its ``_error`` columns, guarded.

        With a policy the guard judges every group by its ``support``, the
        row's qualifying sample tuples.
        """
        answer = ApproximateAnswer(
            result=result,
            confidence=self._confidence,
            synopsis=synopsis,
            elapsed_seconds=elapsed,
            version=version,
        )
        if policy is None:
            return answer
        check_deadline("guard")
        with self.telemetry.tracer.span("guard") as guard_span:
            answer = self._guard_answer(
                query, synopsis, answer, policy, stale, support
            )
            if answer.guard is not None:
                guard_span.set(**answer.guard.counts)
        return answer

    # -- the guard ladder ---------------------------------------------------

    def _result_keys(
        self, table: Table, key_columns: Sequence[str]
    ) -> List[GroupKey]:
        """Each row's group key; ``key_columns`` are a stage query's
        ``GROUP BY`` columns (:meth:`Query.bind`)."""
        if not key_columns:
            return [()] * table.num_rows
        return key_tuples([table.column(name) for name in key_columns])

    def _missing_groups(
        self,
        query: Query,
        synopsis: Synopsis,
        group_by: Sequence[str],
        present: List[GroupKey],
    ) -> List[GroupKey]:
        """Answer groups the synopsis knows exist but failed to estimate.

        Only detectable when the query groups by a subset of the
        stratification columns: then every populated stratum projects onto
        an expected answer group.  (A WHERE clause may legitimately empty a
        group -- the repair settles that against the base table.)
        HAVING and LIMIT legitimately drop groups from the answer, so no
        absence is diagnosable under them.
        """
        if query.having is not None or query.limit is not None:
            return []
        if not group_by or not set(group_by) <= set(synopsis.grouping_columns):
            return []
        absent = synopsis.sample.frame.expected_groups(group_by) - set(present)
        if not absent:
            return []
        # Tuples holding NaN never compare equal: settle the rest by value.
        _, columns = factorize([np.asarray(c) for c in zip(*absent)])
        found = rows_in_groups(columns, present)
        return key_tuples([np.delete(column, found) for column in columns])

    def _flag_groups(
        self,
        query: Query,
        result: Table,
        keys: List[GroupKey],
        support: np.ndarray,
        policy: GuardPolicy,
    ) -> Tuple[np.ndarray, Dict[GroupKey, str]]:
        """Threshold checks per answer group: support, finiteness, bounds.

        Each check runs once, column-at-a-time, into a boolean array; only
        the rows that fail one are then visited, to word their reasons from
        those arrays.  Returns the failing-row mask and each failing
        group's reasons.
        """
        limit = policy.max_relative_halfwidth
        # (mask, wording of row i) per check, in the order reasons are given.
        checks = [
            (
                support < policy.min_group_support,
                lambda i: f"sample support {int(support[i])} below minimum "
                f"{policy.min_group_support}",
            )
        ]
        for aggregate in query.aggregates():
            alias = aggregate.alias
            column = result.column(alias)
            if column.dtype.kind not in "fiu":
                continue  # non-numeric aggregate (e.g. MIN over strings)
            values = column.astype(np.float64)
            finite = np.isfinite(values)
            checks.append((~finite, lambda i, a=alias: f"{a} is not finite"))
            if aggregate.func not in ESTIMABLE_AGGREGATES:
                continue
            halfwidths = result.column(f"{alias}_error")
            nan = np.isnan(halfwidths) & finite  # one reason per value
            checks.append((nan, lambda i, a=alias: f"{a}_error is NaN"))
            if limit is not None:
                # relative_halfwidth(), array-at-a-time: 0 for a zero
                # half-width, inf over a zero estimate (never above the
                # limit for a value that is not finite or a NaN half-width).
                with np.errstate(divide="ignore", invalid="ignore"):
                    relative = np.where(
                        halfwidths == 0.0,
                        0.0,
                        np.abs(halfwidths) / np.abs(values),
                    )
                checks.append(
                    (
                        relative > limit,
                        lambda i, a=alias, r=relative: f"{a} relative "
                        f"half-width {float(r[i]):.3g} exceeds {limit:.3g}",
                    )
                )
        failing = functools.reduce(np.logical_or, [mask for mask, _ in checks])
        flagged = {
            keys[i]: "; ".join(word(i) for mask, word in checks if mask[i])
            for i in np.flatnonzero(failing).tolist()
        }
        return failing, flagged

    def _guard_answer(
        self,
        query: Query,
        synopsis: Synopsis,
        answer: ApproximateAnswer,
        policy: GuardPolicy,
        stale: int,
        support: np.ndarray,
    ) -> ApproximateAnswer:
        """Check every answer group and escalate the ones that fail.

        ``support`` is the qualifying sample tuples behind each result row.
        """
        metrics = self.telemetry.metrics
        result = answer.result
        group_by = list(query.group_by)
        keys = self._result_keys(result, query.group_by)
        if metrics.enabled:
            support_histogram = metrics.histogram(
                "aqua_group_support_tuples",
                "Sample tuples backing each answer group.",
                buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 10000),
            )
            for count in support.tolist():
                support_histogram.observe(count)
        failing, flagged = self._flag_groups(
            query, result, keys, support, policy
        )
        missing = self._missing_groups(query, synopsis, group_by, keys)

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
                version=answer.version,
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
                version=answer.version, flagged=flagged,
            )
        return self._repair_answer(
            query, answer, policy, stale, keys, failing, flagged, missing
        )

    def _repair_answer(
        self,
        query: Query,
        answer: ApproximateAnswer,
        policy: GuardPolicy,
        stale: int,
        keys: List[GroupKey],
        failing: np.ndarray,
        flagged: Dict[GroupKey, str],
        missing: List[GroupKey],
    ) -> ApproximateAnswer:
        """Patch only the failing groups from the base table.

        This is the paper's small-group problem handled at serve time: the
        synopsis answer is kept for well-supported groups (``~failing``),
        while flagged and missing groups are recomputed exactly over just
        their base rows.  The merge is in ``GROUP BY`` key order, as every
        other answer is, before the query's ORDER BY applies.
        """
        result = answer.result
        group_by = list(query.group_by)
        repair_keys = list(flagged) + missing

        check_deadline("repair")
        start = time.perf_counter()
        with self.telemetry.tracer.span(
            "repair", groups=len(repair_keys)
        ) as span:
            rows = self._group_rows(query, repair_keys)
            span.set(rows=rows.num_rows)
            repair = self._exact_with_zero_errors(query, rows)
        repair_elapsed = time.perf_counter() - start

        # The result's schema coerces each repaired column to its type.
        repaired = Table(result.schema, repair.project(result.schema.names).columns())
        kept = result.filter(~failing)
        merged = kept.concat(repaired)
        order = merged.sort_order(group_by)
        merged = Table(  # STR columns at the width Table.from_rows gives
            merged.schema,
            {
                name: ColumnType.STR.coerce(values.tolist())
                if values.dtype.kind == "U"
                else values
                for name, values in merged.take(order).columns().items()
            },
        )
        tags = np.where(
            order >= kept.num_rows, PROVENANCE_REPAIRED, PROVENANCE_SYNOPSIS
        )
        provenance = dict(
            zip(self._result_keys(merged, group_by), tags.tolist())
        )
        # A flagged group without qualifying base rows was a phantom.
        found = rows_in_groups(
            [result.column(name) for name in group_by],
            self._result_keys(repair, group_by),
            failing,
        )
        phantoms = np.setdiff1d(np.flatnonzero(failing), found)
        dropped = tuple(keys[i] for i in phantoms.tolist())

        merged = self._attach_provenance(merged, tags, policy)
        if query.order_by:
            merged = merged.sort_by(list(query.order_by))
        report = GuardReport(
            policy=policy,
            provenance=provenance,
            flagged=dict(flagged),
            dropped=dropped,
            stale_inserts=stale,
        )
        return dataclass_replace(
            answer,
            result=merged,
            elapsed_seconds=answer.elapsed_seconds + repair_elapsed,
            guard=report,
        )

    def _group_rows(self, query: Query, keys: Sequence[GroupKey]) -> Table:
        """The base rows that pass the query's WHERE and whose ``GROUP BY``
        key is one of ``keys``, in base order: the rows a restricted
        :meth:`exact` would aggregate.  Pending inserts are flushed first,
        as :meth:`exact` does.
        """
        name = query.base_table_name()
        self._flush_pending(name)
        table = self.catalog.get(name)
        rows = rows_in_groups(
            [table.column(c) for c in query.group_by],
            keys,
            None if query.where is None else query.where.evaluate(table),
        )
        return table.take(rows)

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
        version: int,
        issues: Tuple[str, ...] = (),
        flagged: Optional[Dict[GroupKey, str]] = None,
    ) -> ApproximateAnswer:
        """Full exact fallback, shaped like an approximate answer.

        Error columns are attached as zeros (an exact answer has no
        sampling error) and every group is tagged ``exact``.
        """
        start = time.perf_counter()
        with self.telemetry.tracer.span("exact_fallback", reason=reason):
            result = self._exact_with_zero_errors(query)
        elapsed = time.perf_counter() - start
        keys = self._result_keys(result, query.group_by)
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
            version=version,
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
        the error metrics.  Both answers are scored in stage layout
        (:meth:`~repro.engine.query.Query.bind`), keyed by ``GROUP BY``
        name, and reported in the query's own columns.
        """
        user = parse_query(sql) if isinstance(sql, str) else sql
        query, present = user.bind()
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
        for named, aggregate in zip(user.aggregates(), query.aggregates()):
            per_aggregate[named.alias] = groupby_error(
                exact, answer.result, query.group_by, aggregate.alias
            )
        if present is not None:
            answer = dataclass_replace(answer, result=present(answer.result))
            exact = present(exact)
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
        provenance), the cache tier :meth:`answer` would take, and the
        *optimized* operator tree with estimated per-operator
        cardinalities.

        With an error/latency budget (``max_rel_error`` / ``max_ms``) the
        plan is resolved against the table's synopsis portfolio exactly as
        :meth:`answer` would, and the output leads with the chosen member,
        its predictions, and the resolution reason.

        With ``analyze=True`` the plan is also *executed*: the operator
        tree is re-rendered with actual rows and inclusive per-operator
        timings, and the per-stage span tree of a traced answer is
        appended -- the ``EXPLAIN ANALYZE`` of the approximate pipeline.
        Everything is shown for the stage query (:meth:`Query.bind`), the
        one :meth:`answer` runs.
        """
        query, __ = (parse_query(sql) if isinstance(sql, str) else sql).bind()
        base_name = query.base_table_name()
        version = self._state(base_name).version
        choice = None
        if max_rel_error is not None or max_ms is not None:
            portfolio = self.portfolio(base_name)
            choice = portfolio.resolve(
                query,
                max_rel_error=max_rel_error,
                max_ms=max_ms,
                version=version,
            )
            synopsis = choice.synopsis
        else:
            synopsis = self.synopsis(base_name)
        plan = self._rewrite.plan(query, synopsis.installed)
        logical = self._optimized_plan(
            lower_rewritten(plan, self.catalog),
            base_name,
            version,
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
        ``disabled``.  A roll-up match is reported only when ``validate``
        would let the synopsis serve as it stands: no auto-refresh due
        and, under the policy, neither stale past its limit (short of
        ``on_stale="serve"``) nor structurally damaged.
        """
        if self._cache is None and self._reuse is None:
            return "disabled"
        policy = self._resolve_guard(None)
        state = self._state(base_name)
        if self._cache is not None:
            key = self._cache_key(query, base_name, policy, state.version, budget)
            entry = self._cache.peek(key)
            if entry is not None:
                if entry.sql == render_query(query):
                    return "exact"
                return "canonical"
        synopsis = state.synopsis
        if (
            self._reuse is None
            or budget
            or synopsis is None
            or self._refresh_due(base_name)
        ):
            return "miss"
        if policy is not None and (
            (
                self._over_staleness_limit(policy, state.inserts_since_refresh)
                and policy.on_stale != "serve"
            )
            or self._synopsis_issues(state, synopsis)
        ):
            return "miss"
        match = self._rollup_match(
            query, base_name, synopsis, state.version, count=False
        )
        if match is None:
            return "miss"
        return f"rollup (from {match.snapshot.describe_source})"

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
        machinery the guard's exact fallback uses, so degraded service
        keeps up with base tables the synopsis was built to avoid
        scanning.  It runs the stage query (:meth:`Query.bind`)
        and presents the result in the query's own columns, so it accepts
        every query :meth:`answer` does.
        """
        user = parse_query(sql) if isinstance(sql, str) else sql
        query, present = user.bind()
        self._flush_pending(query.base_table_name())
        try:
            logical = optimize_plan(
                lower_query(query, self.catalog),
                cost_model=self._cost_model(),
            )
            result = execute_plan(
                logical,
                self.catalog,
                parallel=self._executor,
                tracer=self.telemetry.tracer,
            )
        except CatalogError as exc:
            raise TableNotRegisteredError(str(exc)) from exc
        return result if present is None else present(result)

    def _exact_with_zero_errors(
        self, query: Query, rows: Optional[Table] = None
    ) -> Table:
        """:meth:`exact` on a stage query, or its aggregation over ``rows``
        that passed its WHERE (the engine's table-level entry, the same
        GROUP BY as the plan's), with a zero ``<alias>_error`` column per
        SUM/COUNT/AVG: an exact answer has no sampling error."""
        if rows is None:
            result = self.exact(query)
        else:
            result = execute_on_table(
                dataclass_replace(query, where=None, order_by=(), limit=None),
                rows,
                parallel=self._executor,
            )
        for aggregate in query.aggregates():
            if aggregate.func in ESTIMABLE_AGGREGATES:
                result = result.with_column(
                    Column(f"{aggregate.alias}_error", ColumnType.FLOAT),
                    np.zeros(result.num_rows),
                )
        return result

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
        same shape as :meth:`answer` results), finalized by the moments
        kernel's estimator with the relation as one stratum.

        The terminal emission of a run-to-completion stream is
        :meth:`exact`'s answer (``final=True``, zero half-widths), so it is
        bit-identical to it; it is then stored in the answer cache.  ``until_rel_error`` stops
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

    def _observe_halfwidths(self, query: Query, result: Table) -> None:
        """Record each group's relative half-width, per bounded aggregate
        (metrics enabled only)."""
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
        for aggregate in query.aggregates():
            error_name = f"{aggregate.alias}_error"
            if error_name not in result.schema:
                continue
            for halfwidth, value in zip(
                result.column(error_name).tolist(),
                result.column(aggregate.alias).tolist(),
            ):
                if not math.isfinite(halfwidth):
                    continue
                relative = relative_halfwidth(halfwidth, float(value))
                if math.isfinite(relative):
                    halfwidth_histogram.observe(relative)

    def _moments(
        self,
        query: Query,
        state: _TableState,
        synopsis: Synopsis,
        version: int,
    ) -> ReuseSnapshot:
        """One pass over the sample: the query's per-cell moments at data
        ``version``, masked by its WHERE (see :meth:`_serve_moments`).
        Hoeffding bounds read their value ranges from the base table."""
        group_text = ", ".join(query.group_by) if query.group_by else "()"
        source = (
            f"{synopsis.base_name}@v{version} "
            f"{synopsis.allocation_strategy}/{synopsis.rewrite_strategy} "
            f"GROUP BY ({group_text})"
        )
        return ReuseSnapshot(
            base_name=synopsis.base_name,
            version=version,
            synopsis_signature=self._synopsis_signature(synopsis),
            conjuncts=predicate_conjuncts(query.where),
            confidence=self._confidence,
            describe_source=source,
            moments=SampleMoments.build(
                synopsis.sample,
                query.where,
                query.aggregates(),
                query.group_by,
                state.table if self._bound_method == "hoeffding" else None,
            ),
        )

    # -- incremental maintenance -------------------------------------------

    def enable_maintenance(self, name: str) -> None:
        """Switch a table's synopsis to streaming maintenance (Section 6).

        Pending inserts are flushed first, so the maintainer counts every
        row a later refresh records as covered.  The base rows are then
        streamed through the strategy's maintainer once: one pass over the
        relation, in which the Eq. 8 Congress maintainer reads only the
        grouping columns, a chunk at a time, and gathers the rows it
        accepts with one ``take``.  After that each :meth:`insert` updates
        the maintainer alone (``O(2^|G|)`` counter updates for Congress)
        without touching the base relation.
        """
        self._flush_pending(name)
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
