"""A portfolio of congressional samples with budget-driven selection.

The paper builds *one* congressional sample per (table, grouping columns,
allocation, budget) and the caller picks it manually.  BlinkDB's insight
(PAPERS.md) is that a warehouse should instead maintain *many* samples --
varying allocation strategy, sample rate, and grouping-column sets -- and
let the planner resolve a per-query **error budget** (``max_rel_error``)
or **latency budget** (``max_ms``) to the cheapest sample predicted to
satisfy it.  This module is that layer:

* :class:`SynopsisSpec` -- the recipe for one portfolio member (name,
  allocation strategy, tuple budget, optional grouping-column subset);
* :class:`PortfolioMember` -- a built member: the installed
  :class:`~repro.aqua.synopsis.Synopsis` plus the row count it was built
  against (staleness bookkeeping);
* :class:`CostErrorModel` -- the prediction side.  Error comes from the
  synopses' own stratum cardinalities: the qualifying sample tuples per
  answer group (measured by evaluating the query's WHERE against the
  sample itself, which is budget-bounded and therefore cheap) drive a
  Chebyshev-shaped ``z * cv / sqrt(m_effective)`` relative-error
  prediction.  Cost is a two-coefficient latency line ``a + b * rows``
  whose slope is re-calibrated by EWMA from every observed answer -- the
  :class:`~repro.aqua.workload_log.QueryLog` history in coefficient form;
* :class:`SynopsisPortfolio` -- membership, the budget resolver
  (:meth:`~SynopsisPortfolio.resolve`), and a version-keyed resolution
  cache that every version bump (insert, flush, refresh, rebuild) empties.

Selection semantics (see ``docs/PORTFOLIO.md``):

* ``max_rel_error=e`` -- the *cheapest* member whose predicted worst-group
  relative error is ``<= e`` (reason ``"error_budget"``).  If no member is
  predicted to meet ``e``, the most accurate member is chosen (reason
  ``"best_effort"``) and the caller's guard ladder enforces the bound the
  hard way (per-group repair, exact fallback) -- a budget answer is never
  *silently* out of bound.
* ``max_ms=t`` -- among members predicted to answer within ``t``, the most
  accurate one (reason ``"time_budget"``); none fitting, the cheapest
  member overall (``"best_effort"``).
* both -- the error rule applied to the subset predicted to fit ``t``.

Ties prefer members whose grouping columns cover the groupings the
:class:`~repro.aqua.workload_log.QueryLog` says analysts actually use.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.allocation import AllocationStrategy
from ..core.basic_congress import BasicCongress
from ..core.congress import Congress
from ..core.house import House
from ..engine.query import Query
from ..engine.render import render_query
from ..errors import AquaError
from ..estimators.moments import SampleMoments
from .cache import LRUCache
from .synopsis import Synopsis
from .workload_log import QueryLog

__all__ = [
    "CostErrorModel",
    "PortfolioChoice",
    "PortfolioMember",
    "SynopsisPortfolio",
    "SynopsisSpec",
    "default_portfolio_specs",
]

#: Resolution reasons (the ``reason`` label of ``portfolio_selections_total``).
REASON_ERROR_BUDGET = "error_budget"
REASON_TIME_BUDGET = "time_budget"
REASON_BEST_EFFORT = "best_effort"
REASON_FORCED = "forced"

_RESOLUTION_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class SynopsisSpec:
    """The recipe for one portfolio member.

    Attributes:
        name: member name, unique within the portfolio (used in catalog
            relation names, metrics labels, and golden files).
        budget: sample-tuple budget for this member (the paper's ``X``).
        allocation: allocation strategy shaping the member's sample.
        grouping_columns: optional stratification subset; ``None`` uses the
            table's registered grouping columns.
    """

    name: str
    budget: int
    allocation: AllocationStrategy
    grouping_columns: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise AquaError("portfolio member spec needs a name")
        if self.budget < 1:
            raise AquaError(
                f"member {self.name!r} budget must be >= 1, got {self.budget}"
            )


@dataclass
class PortfolioMember:
    """One built member: the synopsis plus its build-time bookkeeping."""

    spec: SynopsisSpec
    synopsis: Synopsis
    rows_at_build: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def sample_size(self) -> int:
        return self.synopsis.sample_size

    def staleness(self, current_rows: int) -> int:
        """Rows added to the base table since this member was built."""
        return max(current_rows - self.rows_at_build, 0)


@dataclass(frozen=True)
class PortfolioChoice:
    """The resolver's verdict for one (query, budget) pair.

    Attributes:
        member: the chosen member name.
        synopsis: the chosen member's synopsis.
        predicted_rel_error: the model's worst-group relative-error
            prediction for this query on the chosen member (``inf`` when
            the member's sample has no qualifying tuples at all).
        predicted_seconds: the model's latency prediction.
        reason: why this member won (``error_budget`` / ``time_budget`` /
            ``best_effort`` / ``forced``).
        rows_at_build: base rows the member covered when built (staleness
            accounting in the answer pipeline).
        considered: how many members were scored.
    """

    member: str
    synopsis: Synopsis
    predicted_rel_error: float
    predicted_seconds: float
    reason: str
    rows_at_build: int
    considered: int

    @property
    def within_error_budget(self) -> bool:
        return self.reason == REASON_ERROR_BUDGET


class CostErrorModel:
    """Predicts relative error and latency for a (query, member) pair.

    **Error.**  A congressional sample answers a group with ``m``
    qualifying tuples at a relative half-width of roughly
    ``z * cv / sqrt(m)``: ``z`` is the Chebyshev multiplier at the
    system's confidence (``1/sqrt(1 - confidence)``, matching the bound
    the answer pipeline actually attaches) and ``cv`` the within-group
    coefficient of variation, defaulting to 1 and re-estimated by EWMA
    from audited answers.  Qualifying tuples come from the sample itself:
    the moments kernel (:class:`~repro.estimators.moments.SampleMoments`)
    evaluates the query's WHERE over the (budget-bounded) sample, so the
    prediction is seeded
    from the synopsis' own stratum cardinalities, not from base-table
    scans.  The closed form used by the property tests,
    :meth:`predicted_rel_error`, makes the two monotonicities explicit:
    non-increasing in sample size, non-decreasing in predicate
    selectivity (the fraction of rows the predicate *eliminates*).

    **Cost.**  Latency is a line ``a + b * sample_rows``.  ``a`` is the
    pipeline's fixed overhead (parse/rewrite/bounds), ``b`` the per-row
    scan+aggregate cost; :meth:`observe_latency` folds every observed
    answer into ``b`` by EWMA, so the line tracks the hardware and the
    workload history rather than a guess.
    """

    def __init__(
        self,
        confidence: float = 0.95,
        cv: float = 1.0,
        overhead_seconds: float = 5e-4,
        seconds_per_row: float = 2e-7,
        ewma_alpha: float = 0.2,
    ):
        if not 0.0 < confidence < 1.0:
            raise AquaError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise AquaError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        self.confidence = confidence
        self.cv = cv
        self._overhead = overhead_seconds
        self._per_row = seconds_per_row
        self._alpha = ewma_alpha
        self._latency_observations = 0
        self._error_observations = 0
        self._lock = threading.Lock()

    # -- closed forms (the property-test surface) ----------------------------

    @staticmethod
    def z_multiplier(confidence: float) -> float:
        """Chebyshev multiplier at ``confidence`` (matches answer bounds)."""
        return 1.0 / math.sqrt(max(1.0 - confidence, 1e-12))

    @classmethod
    def predicted_rel_error(
        cls,
        sample_tuples: float,
        selectivity: float = 0.0,
        cv: float = 1.0,
        confidence: float = 0.95,
    ) -> float:
        """Predicted worst-group relative error, closed form.

        Args:
            sample_tuples: qualifying sample tuples available to the group
                before the predicate (the member's per-group sample size).
            selectivity: fraction of tuples the WHERE predicate
                *eliminates* (0 = keeps everything, 1 = keeps nothing).
            cv: within-group coefficient of variation.
            confidence: the bound's confidence level.

        Monotone non-increasing in ``sample_tuples`` and monotone
        non-decreasing in ``selectivity`` -- the two facts the Hypothesis
        suite pins.  Returns ``inf`` when fewer than one tuple is expected
        to survive the predicate (the sample cannot answer at all).
        """
        if sample_tuples < 0:
            raise AquaError(
                f"sample_tuples must be >= 0, got {sample_tuples}"
            )
        selectivity = min(max(selectivity, 0.0), 1.0)
        effective = sample_tuples * (1.0 - selectivity)
        if effective < 1.0:
            return float("inf")
        return cls.z_multiplier(confidence) * cv / math.sqrt(effective)

    def predicted_seconds(self, sample_rows: int) -> float:
        """Predicted end-to-end answer latency for a member of this size."""
        return self._overhead + self._per_row * max(sample_rows, 0)

    # -- per-query prediction ------------------------------------------------

    def predict_query_rel_error(
        self, query: Query, synopsis: Synopsis
    ) -> float:
        """Worst-group relative-error prediction for ``query`` on a member.

        Evaluates the query's WHERE against the member's own sample (cheap:
        samples are budget-bounded) to get qualifying tuples per answer
        group; the thinnest group dominates the prediction, mirroring the
        worst-group promise the answer pipeline reports.
        """
        support = (
            SampleMoments.build(synopsis.sample, query.where, (), query.group_by)
            .finalize(query.group_by, (), self.confidence)
            .support
        )
        if not support.any():
            return float("inf")
        thinnest = int(support[support > 0].min())
        return self.predicted_rel_error(
            thinnest, 0.0, cv=self.cv, confidence=self.confidence
        )

    # -- calibration from served answers -------------------------------------

    def observe_latency(self, sample_rows: int, seconds: float) -> None:
        """Fold one observed (member size, answer latency) pair into ``b``."""
        if sample_rows <= 0 or seconds <= 0 or not math.isfinite(seconds):
            return
        implied = max(seconds - self._overhead, 0.0) / sample_rows
        with self._lock:
            self._per_row = (
                (1.0 - self._alpha) * self._per_row + self._alpha * implied
            )
            self._latency_observations += 1

    def observe_rel_error(
        self, sample_tuples: int, observed_rel_error: float
    ) -> None:
        """Re-estimate ``cv`` from an observed worst-group relative error."""
        if (
            sample_tuples < 1
            or not math.isfinite(observed_rel_error)
            or observed_rel_error < 0
        ):
            return
        implied_cv = (
            observed_rel_error
            * math.sqrt(sample_tuples)
            / self.z_multiplier(self.confidence)
        )
        with self._lock:
            self.cv = (1.0 - self._alpha) * self.cv + self._alpha * implied_cv
            self._error_observations += 1

    def describe(self) -> str:
        return (
            f"model: rel_error ~ {self.z_multiplier(self.confidence):.2f} * "
            f"{self.cv:.3f} / sqrt(m); "
            f"latency ~ {self._overhead * 1000:.2f}ms + "
            f"{self._per_row * 1e6:.3f}us/row "
            f"({self._latency_observations} latency obs, "
            f"{self._error_observations} error obs)"
        )


@dataclass
class SynopsisPortfolio:
    """The members, the model, and the budget resolver for one table."""

    base_name: str
    model: CostErrorModel
    workload: Optional[QueryLog] = None
    members: "OrderedDict[str, PortfolioMember]" = field(
        default_factory=OrderedDict
    )
    _resolutions: LRUCache = field(
        default_factory=lambda: LRUCache(_RESOLUTION_CACHE_CAPACITY),
        repr=False,
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )

    def add_member(
        self,
        spec: SynopsisSpec,
        synopsis: Synopsis,
        rows_at_build: int,
    ) -> PortfolioMember:
        member = PortfolioMember(
            spec=spec,
            synopsis=synopsis,
            rows_at_build=rows_at_build,
        )
        with self._lock:
            self.members[spec.name] = member
            self._resolutions.clear()
        return member

    def member(self, name: str) -> PortfolioMember:
        try:
            return self.members[name]
        except KeyError:
            raise AquaError(
                f"portfolio for {self.base_name!r} has no member {name!r}; "
                f"members: {sorted(self.members)}"
            ) from None

    def coarsest(self) -> PortfolioMember:
        """The smallest-sample member -- the degradation ladder's pick."""
        if not self.members:
            raise AquaError(f"portfolio for {self.base_name!r} is empty")
        return min(self.members.values(), key=lambda m: m.sample_size)

    def specs(self) -> Tuple[SynopsisSpec, ...]:
        return tuple(member.spec for member in self.members.values())

    # -- resolution -----------------------------------------------------------

    def _workload_affinity(self, member: PortfolioMember) -> float:
        """How much of the observed workload this member's columns cover."""
        if self.workload is None or self.workload.total_queries == 0:
            return 0.0
        columns = set(member.synopsis.grouping_columns)
        return sum(
            fraction
            for grouping, fraction in
            self.workload.grouping_frequencies().items()
            if set(grouping) <= columns
        )

    def _scored(
        self, query: Query
    ) -> List[Tuple[PortfolioMember, float, float]]:
        """Members with (predicted seconds, predicted rel error), cheapest
        first; workload affinity breaks latency ties."""
        scored = []
        for member in self.members.values():
            seconds = self.model.predicted_seconds(member.sample_size)
            rel_error = self.model.predict_query_rel_error(
                query, member.synopsis
            )
            scored.append((member, seconds, rel_error))
        scored.sort(
            key=lambda item: (item[1], -self._workload_affinity(item[0]))
        )
        return scored

    def resolve(
        self,
        query: Query,
        max_rel_error: Optional[float] = None,
        max_ms: Optional[float] = None,
        version: int = 0,
    ) -> PortfolioChoice:
        """Pick the cheapest member predicted to satisfy the budget(s).

        Resolutions are memoized under ``(version, rendered query,
        budgets)``; every version bump drops them all
        (:meth:`invalidate_resolutions`), so a pre-insert choice can never
        answer a post-insert query.
        """
        if max_rel_error is None and max_ms is None:
            raise AquaError(
                "resolve() needs max_rel_error and/or max_ms; for "
                "budget-free answers use the primary synopsis"
            )
        if max_rel_error is not None and max_rel_error <= 0:
            raise AquaError(
                f"max_rel_error must be > 0, got {max_rel_error}"
            )
        if max_ms is not None and max_ms <= 0:
            raise AquaError(f"max_ms must be > 0, got {max_ms}")
        if not self.members:
            raise AquaError(
                f"portfolio for {self.base_name!r} has no members; call "
                "build_portfolio() first"
            )
        key = (version, render_query(query), max_rel_error, max_ms)
        cached = self._resolutions.get(key)
        if cached is not None:
            return cached
        choice = self._resolve_uncached(query, max_rel_error, max_ms)
        self._resolutions.put(key, choice)
        return choice

    def _resolve_uncached(
        self,
        query: Query,
        max_rel_error: Optional[float],
        max_ms: Optional[float],
    ) -> PortfolioChoice:
        scored = self._scored(query)
        considered = len(scored)
        in_time = (
            scored
            if max_ms is None
            else [s for s in scored if s[1] * 1000.0 <= max_ms]
        )
        if max_rel_error is not None:
            pool = in_time or scored
            for member, seconds, rel_error in pool:
                if rel_error <= max_rel_error:
                    reason = (
                        REASON_ERROR_BUDGET
                        if in_time or max_ms is None
                        else REASON_BEST_EFFORT
                    )
                    return self._choice(
                        member, rel_error, seconds, reason, considered
                    )
            # Nothing predicted to meet the error bound: serve the most
            # accurate candidate and let the guard ladder enforce e.
            member, seconds, rel_error = min(pool, key=lambda s: (s[2], s[1]))
            return self._choice(
                member, rel_error, seconds, REASON_BEST_EFFORT, considered
            )
        # Pure time budget: the most accurate member that fits.
        if in_time:
            member, seconds, rel_error = min(
                in_time, key=lambda s: (s[2], s[1])
            )
            return self._choice(
                member, rel_error, seconds, REASON_TIME_BUDGET, considered
            )
        member, seconds, rel_error = scored[0]  # cheapest overall
        return self._choice(
            member, rel_error, seconds, REASON_BEST_EFFORT, considered
        )

    def forced_choice(self, name: str, query: Query) -> PortfolioChoice:
        """A non-budget choice of a specific member (degradation ladder)."""
        member = self.member(name)
        return self._choice(
            member,
            self.model.predict_query_rel_error(query, member.synopsis),
            self.model.predicted_seconds(member.sample_size),
            REASON_FORCED,
            considered=1,
        )

    def _choice(
        self,
        member: PortfolioMember,
        rel_error: float,
        seconds: float,
        reason: str,
        considered: int,
    ) -> PortfolioChoice:
        return PortfolioChoice(
            member=member.name,
            synopsis=member.synopsis,
            predicted_rel_error=rel_error,
            predicted_seconds=seconds,
            reason=reason,
            rows_at_build=member.rows_at_build,
            considered=considered,
        )

    def invalidate_resolutions(self) -> None:
        self._resolutions.clear()

    @property
    def resolution_cache_size(self) -> int:
        return len(self._resolutions)

    def describe(self) -> str:
        """Multi-line human-readable summary (the shell's ``.portfolio``)."""
        lines = [
            f"portfolio[{self.base_name}]: {len(self.members)} members, "
            f"{self.resolution_cache_size} cached resolutions"
        ]
        for member in self.members.values():
            synopsis = member.synopsis
            lines.append(
                f"  {member.name}: {synopsis.allocation_strategy} "
                f"budget={member.spec.budget} size={member.sample_size} "
                f"cols=({', '.join(synopsis.grouping_columns)}) "
                f"~{self.model.predicted_seconds(member.sample_size) * 1000:.2f}ms "
                f"built@rows={member.rows_at_build}"
            )
        lines.append("  " + self.model.describe())
        return "\n".join(lines)


def default_portfolio_specs(
    space_budget: int,
    grouping_columns: Sequence[str],
    workload: Optional[QueryLog] = None,
) -> Tuple[SynopsisSpec, ...]:
    """The stock >= 3-member ladder for a table.

    * ``fine`` -- Congress at the full budget: every grouping covered at
      the paper's best allocation; the accuracy anchor.
    * ``mid`` -- BasicCongress at a quarter budget: cheaper, still
      group-aware.
    * ``coarse`` -- House at a sixteenth budget: the latency floor the
      degradation ladder reaches for.
    * ``hot`` (only when the workload log shows a dominant non-trivial
      grouping) -- Congress over just that grouping's columns at half
      budget: the BlinkDB move of specializing for what analysts ask.
    """
    if space_budget < 4:
        raise AquaError(
            f"portfolio needs a space budget >= 4, got {space_budget}"
        )
    specs = [
        SynopsisSpec(
            name="fine", budget=space_budget, allocation=Congress()
        ),
        SynopsisSpec(
            name="mid",
            budget=max(space_budget // 4, 2),
            allocation=BasicCongress(),
        ),
        SynopsisSpec(
            name="coarse",
            budget=max(space_budget // 16, 2),
            allocation=House(),
        ),
    ]
    if workload is not None and workload.total_queries > 0:
        frequencies = workload.grouping_frequencies()
        hot = max(frequencies, key=frequencies.get)
        if hot and frequencies[hot] >= 0.5 and set(hot) != set(
            grouping_columns
        ):
            specs.append(
                SynopsisSpec(
                    name="hot",
                    budget=max(space_budget // 2, 2),
                    allocation=Congress(),
                    grouping_columns=tuple(hot),
                )
            )
    return tuple(specs)
