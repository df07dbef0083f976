"""Guarded answering: serve-time quality control for approximate answers.

The paper promises that *every* group in *every* group-by query receives a
usable approximate answer.  In practice a deployed synopsis can fail that
promise in several ways: a group may have too few sample tuples for a
meaningful estimate (the Section 3 small-group problem surfacing at serve
time), error bounds may be inestimable (``NaN``), the synopsis may have
drifted behind the base table under inserts, or its stored state may be
corrupted.  Systems such as BlinkDB and VerdictDB treat these failure modes
as first-class, with error-bounded serving and fallback-to-exact paths; this
module is Aqua's equivalent.

Three pieces:

* :class:`GuardPolicy` -- serve-time thresholds (minimum per-group sample
  support, maximum relative half-width, staleness limit) and the escalation
  behaviour when they are violated.  :meth:`AquaSystem.answer` applies the
  policy through an escalation ladder: serve the synopsis answer, patch only
  the failing groups from the base table (*partial-exact repair*), or fall
  back to a full exact answer.  Every answer group carries a provenance tag
  (``synopsis`` / ``repaired`` / ``exact``).
* :class:`RefreshPolicy` -- an administrator-set drift threshold past which
  :meth:`AquaSystem.refresh_synopsis` is triggered automatically.
* :class:`SynopsisHealth` -- a structured report of sample/base ratio,
  strata coverage, pending-row drift, and validation issues, produced by
  :meth:`AquaSystem.health` and the shell's ``.health`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import MetricsRegistry
from ..sampling.groups import GroupKey
from ..sampling.stratified import StratifiedSample

__all__ = [
    "PROVENANCE_COLUMN",
    "PROVENANCE_SYNOPSIS",
    "PROVENANCE_REPAIRED",
    "PROVENANCE_EXACT",
    "PROVENANCE_DEGRADED",
    "PROVENANCE_ROLLUP",
    "GuardPolicy",
    "RefreshPolicy",
    "GuardReport",
    "SynopsisHealth",
    "observe_guard",
    "validate_sample",
]

PROVENANCE_COLUMN = "provenance"
PROVENANCE_SYNOPSIS = "synopsis"
PROVENANCE_REPAIRED = "repaired"
PROVENANCE_EXACT = "exact"
#: Tag for groups served by merging a finer cached entry's aggregate
#: states (roll-up subsumption, see :mod:`repro.aqua.reuse`).  A clean
#: tier: the values are bit-identical to a fresh synopsis answer, so
#: :attr:`GuardReport.degraded` treats it like ``synopsis``.
PROVENANCE_ROLLUP = "rollup"
#: Tag applied by the serving layer (:mod:`repro.serve`) when an answer was
#: produced through the degradation ladder -- the guard ladder was skipped,
#: so none of the other tags' quality stories apply.
PROVENANCE_DEGRADED = "degraded"

_ON_STALE = ("refresh", "exact", "raise", "serve")
_ON_CORRUPT = ("exact", "raise")


@dataclass(frozen=True)
class GuardPolicy:
    """Serve-time quality thresholds and escalation behaviour.

    Attributes:
        min_group_support: minimum qualifying sample tuples an answer group
            needs before its estimate is trusted; groups below are repaired
            from the base table.
        max_relative_halfwidth: if set, groups whose error half-width
            exceeds this fraction of the estimate's magnitude are repaired.
        staleness_limit: if set, maximum inserts since the last synopsis
            build/refresh before ``on_stale`` kicks in.
        on_stale: ``"refresh"`` (rebuild the synopsis, then serve),
            ``"exact"`` (serve the exact answer), ``"raise"``
            (:class:`~repro.errors.StaleSynopsisError`), or ``"serve"``
            (ignore staleness).
        on_corrupt: ``"exact"`` (serve the exact answer) or ``"raise"``
            (:class:`~repro.errors.SynopsisCorruptError`) when synopsis
            validation fails.
        repair: allow partial-exact repair of failing groups.
        exact_fallback: allow the full exact fallback; when disabled, an
            unservable answer raises
            :class:`~repro.errors.GuardViolationError` instead.
        max_repair_fraction: when more than this fraction of answer groups
            needs repair, skip per-group patching and serve the whole query
            exactly (repairing most groups costs as much as one exact run).
        provenance_column: name of the per-group provenance column attached
            to guarded results (skipped if the query already uses the name).
    """

    min_group_support: int = 2
    max_relative_halfwidth: Optional[float] = None
    staleness_limit: Optional[int] = None
    on_stale: str = "refresh"
    on_corrupt: str = "exact"
    repair: bool = True
    exact_fallback: bool = True
    max_repair_fraction: float = 0.5
    provenance_column: str = PROVENANCE_COLUMN

    def __post_init__(self) -> None:
        if self.min_group_support < 0:
            raise ValueError(
                f"min_group_support must be >= 0, got {self.min_group_support}"
            )
        if (
            self.max_relative_halfwidth is not None
            and self.max_relative_halfwidth < 0
        ):
            raise ValueError(
                "max_relative_halfwidth must be >= 0, "
                f"got {self.max_relative_halfwidth}"
            )
        if self.staleness_limit is not None and self.staleness_limit < 0:
            raise ValueError(
                f"staleness_limit must be >= 0, got {self.staleness_limit}"
            )
        if self.on_stale not in _ON_STALE:
            raise ValueError(
                f"on_stale must be one of {_ON_STALE}, got {self.on_stale!r}"
            )
        if self.on_corrupt not in _ON_CORRUPT:
            raise ValueError(
                f"on_corrupt must be one of {_ON_CORRUPT}, "
                f"got {self.on_corrupt!r}"
            )
        if not 0.0 <= self.max_repair_fraction <= 1.0:
            raise ValueError(
                "max_repair_fraction must be in [0, 1], "
                f"got {self.max_repair_fraction}"
            )


@dataclass(frozen=True)
class RefreshPolicy:
    """Auto-refresh trigger: rebuild the synopsis once drift passes a bound.

    Attributes:
        max_inserts: refresh after this many inserts since the last
            build/refresh.
        max_drift_fraction: refresh once inserts-since-refresh exceeds this
            fraction of the rows covered at the last refresh.
    """

    max_inserts: Optional[int] = None
    max_drift_fraction: Optional[float] = None

    def should_refresh(
        self, inserts_since_refresh: int, rows_at_refresh: int
    ) -> bool:
        if (
            self.max_inserts is not None
            and inserts_since_refresh > self.max_inserts
        ):
            return True
        if self.max_drift_fraction is not None:
            base = max(rows_at_refresh, 1)
            if inserts_since_refresh / base > self.max_drift_fraction:
                return True
        return False


@dataclass
class GuardReport:
    """What the guard did while producing one answer.

    Attributes:
        policy: the policy that was applied.
        provenance: per answer-group provenance tag.
        flagged: answer groups that failed a threshold, with the reason.
        dropped: flagged groups that turned out not to exist in the base
            table (e.g. filtered out by the WHERE clause) and were removed.
        issues: synopsis validation issues found before serving.
        stale_inserts: inserts the serving synopsis was behind by.
        fallback_reason: set when the whole answer was served exactly.
    """

    policy: GuardPolicy
    provenance: Dict[GroupKey, str] = field(default_factory=dict)
    flagged: Dict[GroupKey, str] = field(default_factory=dict)
    dropped: Tuple[GroupKey, ...] = ()
    issues: Tuple[str, ...] = ()
    stale_inserts: int = 0
    fallback_reason: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        """Number of answer groups per provenance tag."""
        out: Dict[str, int] = {}
        for tag in self.provenance.values():
            out[tag] = out.get(tag, 0) + 1
        return out

    @property
    def degraded(self) -> bool:
        """True when anything other than the plain synopsis answer served."""
        return bool(
            self.fallback_reason
            or self.dropped
            or any(
                tag not in (PROVENANCE_SYNOPSIS, PROVENANCE_ROLLUP)
                for tag in self.provenance.values()
            )
        )

    def describe(self) -> str:
        parts = ", ".join(
            f"{count} {tag}" for tag, count in sorted(self.counts.items())
        )
        lines = [f"guard: {parts or 'no groups'}"]
        if self.fallback_reason:
            lines.append(f"fallback: {self.fallback_reason}")
        for key, reason in sorted(self.flagged.items()):
            lines.append(f"flagged {key}: {reason}")
        if self.dropped:
            lines.append(f"dropped (no base rows): {list(self.dropped)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SynopsisHealth:
    """Structured health report for one table's synopsis.

    Attributes:
        table: base table name.
        built: whether a synopsis exists at all.
        base_rows: rows in the materialized base relation.
        pending_rows: inserted rows buffered but not yet flushed.
        sample_size: tuples in the synopsis sample.
        budget: the system's space budget.
        strata_total: strata with a nonzero population.
        strata_covered: of those, strata holding at least one sample tuple.
        inserts_since_refresh: inserts since the synopsis was last
            built/refreshed.
        rows_at_refresh: rows the synopsis covered when last refreshed.
        maintained: whether a streaming maintainer is attached.
        maintainer_inserts: rows the maintainer has consumed (0 if none).
        issues: validation problems (empty for a structurally sound sample).
        stale_after_fraction: drift fraction past which status is "stale".
    """

    table: str
    built: bool
    base_rows: int
    pending_rows: int
    sample_size: int
    budget: int
    strata_total: int
    strata_covered: int
    inserts_since_refresh: int
    rows_at_refresh: int
    maintained: bool
    maintainer_inserts: int = 0
    issues: Tuple[str, ...] = ()
    stale_after_fraction: float = 0.1

    @property
    def sample_ratio(self) -> float:
        """Sample size over current base size (including pending rows)."""
        return self.sample_size / max(self.base_rows + self.pending_rows, 1)

    @property
    def strata_coverage(self) -> float:
        """Fraction of populated strata holding at least one sample tuple."""
        if self.strata_total == 0:
            return 1.0
        return self.strata_covered / self.strata_total

    @property
    def drift_fraction(self) -> float:
        """Inserts since refresh over rows covered at refresh."""
        return self.inserts_since_refresh / max(self.rows_at_refresh, 1)

    @property
    def status(self) -> str:
        """``missing`` / ``corrupt`` / ``stale`` / ``degraded`` / ``ok``."""
        if not self.built:
            return "missing"
        if self.issues:
            return "corrupt"
        if self.drift_fraction > self.stale_after_fraction:
            return "stale"
        if self.strata_coverage < 1.0:
            return "degraded"
        return "ok"

    def describe(self) -> str:
        if not self.built:
            return (
                f"health[{self.table}] status=missing "
                f"(no synopsis built; {self.base_rows} base rows, "
                f"{self.pending_rows} pending)"
            )
        text = (
            f"health[{self.table}] status={self.status} "
            f"sample={self.sample_size}/{self.base_rows + self.pending_rows} "
            f"({100 * self.sample_ratio:.2f}%) "
            f"strata={self.strata_covered}/{self.strata_total} "
            f"drift={self.inserts_since_refresh} "
            f"pending={self.pending_rows}"
        )
        if self.maintained:
            text += f" maintained={self.maintainer_inserts} rows"
        if self.issues:
            text += "\n  issues: " + "; ".join(self.issues)
        return text


def observe_guard(
    metrics: MetricsRegistry, table: str, report: GuardReport
) -> None:
    """Record one :class:`GuardReport` into a metrics registry.

    Emits per-provenance answer-group counters (``synopsis`` / ``repaired``
    / ``exact``), flagged/dropped group counters, whole-answer fallback
    counts, and the staleness-drift gauge observed at answer time.  A
    disabled registry makes this a no-op.
    """
    if not metrics.enabled:
        return
    groups = metrics.counter(
        "aqua_guard_groups_total",
        "Answer groups served, by table and provenance tag.",
        ("table", "provenance"),
    )
    for tag, count in report.counts.items():
        groups.inc(count, table=table, provenance=tag)
    if report.flagged:
        metrics.counter(
            "aqua_guard_flagged_groups_total",
            "Answer groups that failed a guard threshold.",
            ("table",),
        ).inc(len(report.flagged), table=table)
    if report.dropped:
        metrics.counter(
            "aqua_guard_dropped_groups_total",
            "Flagged groups dropped as phantoms (no qualifying base rows).",
            ("table",),
        ).inc(len(report.dropped), table=table)
    if report.fallback_reason is not None:
        metrics.counter(
            "aqua_guard_fallbacks_total",
            "Whole answers escalated to the exact fallback.",
            ("table",),
        ).inc(table=table)
    metrics.gauge(
        "aqua_stale_inserts",
        "Inserts the serving synopsis was behind by at answer time.",
        ("table",),
    ).set(report.stale_inserts, table=table)


def validate_sample(sample: StratifiedSample) -> List[str]:
    """Structural validation of a stratified sample.

    Returns a list of human-readable issues; an empty list means the sample
    is structurally sound (populations plausible, scale factors finite and
    positive, row indices inside the base table and duplicate-free).  Used
    by the answer-time guard and by :meth:`AquaSystem.health`.  The checks
    are one pass over the arrays of ``sample.frame``, the ones every
    estimator reads
    (:meth:`~repro.sampling.stratified.SampleFrame.structural_issues`).
    """
    return sample.frame.structural_issues()
