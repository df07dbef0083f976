"""The accuracy auditor: recompute sampled answers exactly, judge the bounds.

The congressional-sample pipeline *promises* per-group error bounds; this
module is the only component that checks the promise against ground truth
while serving.  A configurable fraction of non-degraded served answers is
snapshotted at answer time and re-executed through the system's exact
path (partition-parallel, off the serving thread), then compared group by
group:

* a group **violates** when ``|estimate - exact| > halfwidth`` (plus a
  tiny roundoff slack) for any audited aggregate;
* observed relative error and the observed-error-over-promised-bound
  ratio land in ``aqua_audit_*`` histograms, with the violating query's
  trace id attached as an exemplar so a bad bucket points at a concrete
  query;
* the source event is back-annotated (``audited``, ``observed_rel_error``,
  ``bound_violations``), its trace is promoted in the
  :class:`~repro.obs.trace.TraceStore`, and the verdict feeds the
  ``bound_violation_rate`` SLO.

Correctness under concurrency: the audit runs *later* than the answer, so
the base table may have moved.  Every task carries the data version the
answer was computed from (``answer.version``) and the auditor re-checks
it against the table's before and after the exact recomputation -- any
mismatch (insert, flush, refresh, re-registration) skips the audit rather
than reporting a bogus violation against different data.

The auditor is deliberately system-shape-agnostic (it needs only
``table_version``, ``exact``, and ``telemetry``, and answers with
``result``, ``guard``, ``synopsis.base_name`` and ``version``) so
:mod:`repro.obs` stays importable without :mod:`repro.aqua`.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["AccuracyAuditor", "AuditConfig", "AuditStats"]

#: Skip reasons (the ``reason`` label of ``aqua_audit_skipped_total``).
SKIP_VERSION_MISMATCH = "version_mismatch"
SKIP_TABLE_MISSING = "table_missing"
SKIP_QUEUE_FULL = "queue_full"
SKIP_DEGRADED = "degraded"
SKIP_EXACT_FAILED = "exact_failed"

_REL_ERROR_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)
_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class AuditConfig:
    """Sampling and sizing knobs for one :class:`AccuracyAuditor`.

    Attributes:
        sample_fraction: fraction of offered answers audited (0 disables
            sampling entirely; 1 audits everything).
        max_queue: audit tasks buffered; offers beyond it are skipped
            (the audit must never apply backpressure to serving).
        relative_slack: multiplicative tolerance on the promised
            half-width before a group counts as violating, absorbing
            floating-point roundoff between the estimator and the audit.
        absolute_slack: additive tolerance, for near-zero bounds.
    """

    sample_fraction: float = 0.05
    max_queue: int = 64
    relative_slack: float = 1e-9
    absolute_slack: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in [0, 1], got {self.sample_fraction}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


@dataclass
class AuditStats:
    """Thread-safe-by-copy counters (the auditor mutates under its lock)."""

    offered: int = 0
    sampled: int = 0
    audited: int = 0
    violating_queries: int = 0
    violating_groups: int = 0
    groups_checked: int = 0
    skipped: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "offered": self.offered,
            "sampled": self.sampled,
            "audited": self.audited,
            "violating_queries": self.violating_queries,
            "violating_groups": self.violating_groups,
            "groups_checked": self.groups_checked,
            "skipped": dict(self.skipped),
        }

    def describe(self) -> str:
        lines = [
            f"audited {self.audited}/{self.sampled} sampled "
            f"(of {self.offered} offered): "
            f"{self.violating_queries} violating queries, "
            f"{self.violating_groups}/{self.groups_checked} violating groups"
        ]
        if self.skipped:
            rendered = ", ".join(
                f"{reason} {count}"
                for reason, count in sorted(self.skipped.items())
            )
            lines.append(f"skipped: {rendered}")
        return "\n".join(lines)


@dataclass
class _AuditTask:
    """Everything needed to audit one answer after the fact."""

    query: Any  # engine Query; opaque here to avoid importing repro.aqua
    result: Any  # answer Table snapshot (immutable by convention)
    table: str
    version: int
    trace_id: Optional[str]
    aggregates: Tuple[Tuple[str, str], ...]  # (alias, error column)


@dataclass
class AuditFinding:
    """One audited query's verdict (what :meth:`drain` returns)."""

    trace_id: Optional[str]
    table: str
    groups_checked: int
    violations: int
    max_observed_rel_error: float
    violating_groups: Tuple[Tuple, ...] = ()


def _row_keys(table, group_by: List[str]) -> List[Tuple]:
    """Plain-python group keys per row (empty tuple for no GROUP BY)."""
    if not group_by:
        return [() for _ in range(table.num_rows)]
    arrays = [table.column(name) for name in group_by]
    return [
        tuple(
            arr[i].item() if hasattr(arr[i], "item") else arr[i]
            for arr in arrays
        )
        for i in range(table.num_rows)
    ]


class AccuracyAuditor:
    """Shadow-audits a sampled fraction of served answers against exact.

    Args:
        system: anything with ``table_version(name)``, ``exact(query)``,
            and a ``telemetry`` bundle (an
            :class:`~repro.aqua.system.AquaSystem`).
        config: sampling/queue knobs.
        slo: optional :class:`~repro.obs.slo.SLOMonitor`; every audited
            answer feeds its ``bound_violation_rate`` stream.
        rng: sampling source (seeded in tests for determinism).
        background: start a daemon worker draining the queue (production
            mode).  ``False`` leaves tasks queued for an explicit,
            deterministic :meth:`drain` (test mode).
    """

    def __init__(
        self,
        system: Any,
        config: Optional[AuditConfig] = None,
        slo: Any = None,
        rng: Optional[np.random.Generator] = None,
        background: bool = True,
    ):
        self.system = system
        self.config = config if config is not None else AuditConfig()
        self.slo = slo
        self._rng = rng if rng is not None else np.random.default_rng()
        self._lock = threading.Lock()
        self._stats = AuditStats()
        self._queue: "queue.Queue[Optional[_AuditTask]]" = queue.Queue(
            maxsize=self.config.max_queue
        )
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        if background:
            self._worker = threading.Thread(
                target=self._worker_loop, name="aqua-audit", daemon=True
            )
            self._worker.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop the background worker (drains what is already queued)."""
        self._closed = True
        if self._worker is not None:
            self._queue.put(None)
            if wait:
                self._worker.join(timeout=timeout)
            self._worker = None

    def __enter__(self) -> "AccuracyAuditor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the serving-side entry point ----------------------------------------

    def offer(self, query: Any, answer: Any, event: Any = None) -> bool:
        """Maybe enqueue one served answer for audit; never blocks.

        ``query`` is the stage query the system ran
        (:meth:`~repro.engine.query.Query.bind`) and ``answer.result`` its
        stage-layout table, so every group key is found by its ``GROUP
        BY`` name in both the answer and the exact recomputation.

        Returns True when the answer was sampled and queued.  Degraded
        answers are never audited: their contract is "cheap and honest",
        not "within bounds", so auditing them would poison the
        ``bound_violation_rate`` signal.  The serving layer additionally
        suppresses the offer (``audit=False``) before degrading.
        """
        if self._closed:
            return False
        with self._lock:
            self._stats.offered += 1
            if answer.guard is not None and answer.guard.degraded:
                self._skip_locked(SKIP_DEGRADED)
                return False
            fraction = self.config.sample_fraction
            if fraction <= 0.0 or (
                fraction < 1.0 and self._rng.random() >= fraction
            ):
                return False
            self._stats.sampled += 1
        aggregates = tuple(
            (alias, f"{alias}_error")
            for alias in self._bounded_aliases(query, answer.result)
        )
        task = _AuditTask(
            query=query,
            result=answer.result,
            table=answer.synopsis.base_name,
            version=answer.version,
            trace_id=(
                event.trace_id if event is not None else
                getattr(answer, "trace_id", None)
            ),
            aggregates=aggregates,
        )
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            with self._lock:
                self._skip_locked(SKIP_QUEUE_FULL)
            return False
        return True

    @staticmethod
    def _bounded_aliases(query: Any, result: Any) -> List[str]:
        return [
            a.alias
            for a in query.aggregates()
            if f"{a.alias}_error" in result.schema
        ]

    def _current_version(self, table: str) -> int:
        try:
            return self.system.table_version(table)
        except Exception:
            return -1

    # -- processing ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                break
            try:
                self._process(task)
            except Exception:
                # The audit is best-effort; a crashed audit must never
                # take the worker (and all future audits) down with it.
                with self._lock:
                    self._skip_locked(SKIP_EXACT_FAILED)

    def drain(self, max_tasks: Optional[int] = None) -> List[AuditFinding]:
        """Synchronously process queued tasks (deterministic test mode).

        Safe to call alongside a background worker, though pointless --
        whoever gets a task first audits it.
        """
        findings = []
        processed = 0
        while max_tasks is None or processed < max_tasks:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                break
            if task is None:
                continue
            try:
                finding = self._process(task)
            except Exception:
                with self._lock:
                    self._skip_locked(SKIP_EXACT_FAILED)
                finding = None
            if finding is not None:
                findings.append(finding)
            processed += 1
        return findings

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    @property
    def stats(self) -> AuditStats:
        with self._lock:
            return AuditStats(
                offered=self._stats.offered,
                sampled=self._stats.sampled,
                audited=self._stats.audited,
                violating_queries=self._stats.violating_queries,
                violating_groups=self._stats.violating_groups,
                groups_checked=self._stats.groups_checked,
                skipped=dict(self._stats.skipped),
            )

    def _skip_locked(self, reason: str) -> None:
        self._stats.skipped[reason] = self._stats.skipped.get(reason, 0) + 1
        metrics = self.system.telemetry.metrics
        if metrics.enabled:
            metrics.counter(
                "aqua_audit_skipped_total",
                "Audit tasks abandoned, by reason.",
                ("reason",),
            ).inc(reason=reason)

    def _process(self, task: _AuditTask) -> Optional[AuditFinding]:
        start = perf_counter()
        current = self._current_version(task.table)
        if current < 0:
            with self._lock:
                self._skip_locked(SKIP_TABLE_MISSING)
            return None
        if current != task.version:
            with self._lock:
                self._skip_locked(SKIP_VERSION_MISMATCH)
            return None
        try:
            exact = self.system.exact(task.query)
        except Exception:
            with self._lock:
                self._skip_locked(SKIP_EXACT_FAILED)
            return None
        # exact() reads the current record and publishes nothing; a
        # mutation that landed after the version read means it may have
        # read newer data than the audited answer's.
        if self._current_version(task.table) != task.version:
            with self._lock:
                self._skip_locked(SKIP_VERSION_MISMATCH)
            return None
        finding = self._judge(task, exact)
        self._record(task, finding, perf_counter() - start)
        return finding

    def _judge(self, task: _AuditTask, exact: Any) -> AuditFinding:
        group_by = list(task.query.group_by)
        approx_keys = _row_keys(task.result, group_by)
        exact_rows = {
            key: i for i, key in enumerate(_row_keys(exact, group_by))
        }
        violations = 0
        checked = 0
        max_rel = 0.0
        violating: List[Tuple] = []
        cfg = self.config
        for alias, error_column in task.aggregates:
            estimates = task.result.column(alias)
            halfwidths = task.result.column(error_column)
            exact_values = exact.column(alias)
            for i, key in enumerate(approx_keys):
                row = exact_rows.get(key)
                if row is None:
                    continue  # group absent from exact: version should
                    # have caught this; be conservative, not wrong
                halfwidth = float(halfwidths[i])
                if not math.isfinite(halfwidth):
                    continue  # no promise was made for this group
                estimate = float(estimates[i])
                truth = float(exact_values[row])
                observed = abs(estimate - truth)
                checked += 1
                if truth != 0.0:
                    rel = observed / abs(truth)
                    if math.isfinite(rel):
                        max_rel = max(max_rel, rel)
                allowed = (
                    halfwidth * (1.0 + cfg.relative_slack)
                    + cfg.absolute_slack
                )
                if observed > allowed:
                    violations += 1
                    if len(violating) < 8:
                        violating.append(key + (alias,))
        return AuditFinding(
            trace_id=task.trace_id,
            table=task.table,
            groups_checked=checked,
            violations=violations,
            max_observed_rel_error=max_rel,
            violating_groups=tuple(violating),
        )

    def _record(
        self, task: _AuditTask, finding: AuditFinding, seconds: float
    ) -> None:
        telemetry = self.system.telemetry
        metrics = telemetry.metrics
        exemplar = (
            {"trace_id": task.trace_id} if task.trace_id is not None else None
        )
        with self._lock:
            self._stats.audited += 1
            self._stats.groups_checked += finding.groups_checked
            self._stats.violating_groups += finding.violations
            if finding.violations:
                self._stats.violating_queries += 1
        if metrics.enabled:
            metrics.counter(
                "aqua_audit_total",
                "Answers audited against the exact path, per table.",
                ("table",),
            ).inc(table=task.table)
            metrics.histogram(
                "aqua_audit_seconds",
                "Wall time per audit (exact recomputation + comparison).",
                ("table",),
            ).observe(seconds, table=task.table)
            if finding.groups_checked:
                metrics.histogram(
                    "aqua_audit_observed_rel_error",
                    "Worst observed relative error per audited answer.",
                    ("table",),
                    buckets=_REL_ERROR_BUCKETS,
                ).observe(
                    finding.max_observed_rel_error,
                    exemplar=exemplar if finding.violations else None,
                    table=task.table,
                )
            if finding.violations:
                metrics.counter(
                    "aqua_audit_violations_total",
                    "Audited groups whose observed error exceeded the "
                    "promised bound, per table.",
                    ("table",),
                ).inc(finding.violations, table=task.table)
                metrics.histogram(
                    "aqua_audit_violation_groups",
                    "Violating groups per violating audited answer.",
                    ("table",),
                    buckets=(1, 2, 5, 10, 25, 50, 100),
                ).observe(
                    finding.violations, exemplar=exemplar, table=task.table
                )
        telemetry.events.annotate(
            task.trace_id,
            audited=True,
            observed_rel_error=finding.max_observed_rel_error,
            bound_violations=finding.violations,
        )
        if finding.violations and task.trace_id is not None:
            telemetry.traces.promote(task.trace_id, "bound_violation")
        if self.slo is not None:
            self.slo.record_audit(finding.violations, finding.groups_checked)

    # -- convenience ---------------------------------------------------------

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until the queue is empty (background mode); True on success."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self._queue.empty():
                return True
            time.sleep(0.005)
        return self._queue.empty()
