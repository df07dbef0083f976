"""Replication-based calibration of the estimator/bound pipeline.

The :class:`CalibrationRunner` draws ``R`` independent congressional (or
House/Senate/Basic-Congress) samples of the seeded Zipf testbed, answers
every configured query class through every rewrite strategy, and checks,
per allocation × rewrite × bound family × query class × aggregate:

* **coverage** -- the fraction of (replication, answer group) trials whose
  error bound covered the exact answer, against the nominal confidence
  level with a Wilson-interval tolerance band (:mod:`repro.verify.stats`);
* **unbiasedness** -- the per-group mean replication error of SUM/COUNT
  estimates, as a t-statistic (exactly unbiased estimators must not drift);
  AVG (a ratio estimator, only asymptotically unbiased) gets a relative
  mean-bias tolerance instead;
* **rewrite agreement** -- every rewrite's executed answer must match the
  direct estimator to floating-point tolerance on every replication.

A deliberately biased estimator can be injected with ``tamper_scale`` (the
harness's negative control): scaling every estimate by 1.1 must trip both
the coverage and the bias detectors, proving the harness has power.

Calibration runs are traced and measured like queries: the runner takes a
:class:`~repro.obs.Telemetry` bundle and emits ``verify_*`` spans/metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core import BasicCongress, Congress, House, Senate, build_sample
from ..estimators.errors import chebyshev_halfwidth, normal_halfwidth
from ..estimators.point import GroupEstimate, estimate, hoeffding_halfwidths
from ..obs import Telemetry
from ..rewrite import strategy_by_name
from ..sampling.groups import GroupKey
from ..synthetic.queries import QueryClass
from .stats import (
    EXACT_LEVEL_BOUNDS,
    VERDICT_OK,
    CoverageCheck,
    bias_t_statistic,
    check_coverage,
)
from .testbed import TABLE_NAME, Testbed, TestbedConfig, result_by_group

__all__ = [
    "ALLOCATION_REGISTRY",
    "BiasResult",
    "CalibrationConfig",
    "CalibrationResult",
    "CalibrationRunner",
    "CellResult",
    "PairSummary",
    "allocation_by_name",
]

ALLOCATION_REGISTRY = {
    "house": House,
    "senate": Senate,
    "basic_congress": BasicCongress,
    "congress": Congress,
}

_REWRITE_AGREEMENT_RTOL = 1e-9


def allocation_by_name(name: str):
    """Instantiate an allocation strategy from its paper name."""
    try:
        return ALLOCATION_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown allocation strategy {name!r}; "
            f"choose from {sorted(ALLOCATION_REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class CalibrationConfig:
    """One calibration campaign: the full configuration grid plus seeds.

    Attributes:
        seed: master seed; every replication draws from an independent
            spawned child stream, so runs are reproducible and replications
            are statistically independent.
        replications: ``R``, independent samples per allocation.
        budget: synopsis space budget in tuples (the paper's ``X``).
        confidence: nominal level of the checked bounds (0.95 -- the
            acceptance level the ISSUE fixes, not Aqua's default 0.90).
        allocations / rewrites / bounds: the grid axes.
        testbed: the Zipf relation + query classes.
        band_confidence: two-sided confidence of the Wilson tolerance band.
        bias_t_threshold: |t| above which a SUM/COUNT group is flagged as
            biased (4.0 = ~6e-5 two-sided false-flag rate per group).
        avg_bias_tolerance: relative mean-bias tolerance for AVG groups.
        min_bias_replications: groups estimated in fewer replications are
            not bias-tested (no power, all noise).
        normal_min_support: minimum qualifying sample tuples an answer
            group needs for its *normal* (CLT-based) bound to be coverage-
            tested.  The normal family is only valid asymptotically; groups
            below this support are exactly the ones the serve-time guard
            repairs in production, so the harness records them as
            ``low_support`` rather than letting textbook small-sample
            under-coverage mask true calibration defects.  Chebyshev and
            Hoeffding are valid at any sample size and are always tested.
        tamper_scale: multiply every point estimate by this factor
            *after* bounds are computed -- the deliberate-bias negative
            control.  1.0 = honest estimator.
    """

    seed: int = 2026
    replications: int = 30
    budget: int = 600
    confidence: float = 0.95
    allocations: Tuple[str, ...] = (
        "house", "senate", "basic_congress", "congress",
    )
    rewrites: Tuple[str, ...] = (
        "integrated", "nested_integrated", "normalized", "key_normalized",
    )
    bounds: Tuple[str, ...] = ("normal", "chebyshev", "hoeffding")
    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    band_confidence: float = 0.999
    bias_t_threshold: float = 4.0
    avg_bias_tolerance: float = 0.02
    min_bias_replications: int = 8
    normal_min_support: int = 30
    tamper_scale: float = 1.0

    @classmethod
    def quick(cls, seed: int = 2026) -> "CalibrationConfig":
        """The CI-sized campaign (~1 minute): full grid, small testbed."""
        return cls(seed=seed)

    @classmethod
    def full(cls, seed: int = 2026) -> "CalibrationConfig":
        """The nightly campaign: more replications on a larger relation."""
        return cls(
            seed=seed,
            replications=80,
            budget=3000,
            testbed=TestbedConfig(table_size=20_000, num_groups=64),
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "replications": self.replications,
            "budget": self.budget,
            "confidence": self.confidence,
            "allocations": list(self.allocations),
            "rewrites": list(self.rewrites),
            "bounds": list(self.bounds),
            "testbed": self.testbed.to_dict(),
            "band_confidence": self.band_confidence,
            "bias_t_threshold": self.bias_t_threshold,
            "avg_bias_tolerance": self.avg_bias_tolerance,
            "min_bias_replications": self.min_bias_replications,
            "normal_min_support": self.normal_min_support,
            "tamper_scale": self.tamper_scale,
        }


@dataclass(frozen=True)
class CellResult:
    """Coverage of one allocation × rewrite × bound × query × aggregate."""

    allocation: str
    rewrite: str
    bound: str
    query: str
    aggregate: str
    check: CoverageCheck
    missing: int = 0
    unbounded: int = 0
    low_support: int = 0
    exact: int = 0

    @property
    def failed(self) -> bool:
        if self.check.failed:
            return True
        # Exact-level bound families must sit inside the band, not above.
        return (
            self.bound in EXACT_LEVEL_BOUNDS
            and self.check.verdict != VERDICT_OK
        )

    def to_dict(self) -> dict:
        out = {
            "allocation": self.allocation,
            "rewrite": self.rewrite,
            "bound": self.bound,
            "query": self.query,
            "aggregate": self.aggregate,
            "missing": self.missing,
            "unbounded": self.unbounded,
            "low_support": self.low_support,
            "exact": self.exact,
            "failed": self.failed,
        }
        out.update(self.check.to_dict())
        return out


@dataclass(frozen=True)
class PairSummary:
    """Pooled exact-level coverage for one allocation × rewrite pair.

    This is the acceptance criterion's unit: all normal-bound trials of the
    pair, pooled across query classes and aggregates, must lie inside the
    Wilson tolerance band.
    """

    allocation: str
    rewrite: str
    bound: str
    check: CoverageCheck

    @property
    def failed(self) -> bool:
        return self.check.verdict != VERDICT_OK

    def to_dict(self) -> dict:
        out = {
            "allocation": self.allocation,
            "rewrite": self.rewrite,
            "bound": self.bound,
            "failed": self.failed,
        }
        out.update(self.check.to_dict())
        return out


@dataclass(frozen=True)
class BiasResult:
    """Unbiasedness verdict for one allocation × query × aggregate."""

    allocation: str
    query: str
    aggregate: str
    func: str
    groups: int
    max_abs_t: float
    worst_group: Optional[GroupKey]
    mean_relative_bias: float
    rmse: float
    flagged_groups: Tuple[GroupKey, ...] = ()

    @property
    def failed(self) -> bool:
        return bool(self.flagged_groups)

    def to_dict(self) -> dict:
        return {
            "allocation": self.allocation,
            "query": self.query,
            "aggregate": self.aggregate,
            "func": self.func,
            "groups": self.groups,
            "max_abs_t": self.max_abs_t,
            "worst_group": list(self.worst_group)
            if self.worst_group is not None
            else None,
            "mean_relative_bias": self.mean_relative_bias,
            "rmse": self.rmse,
            "flagged_groups": [list(k) for k in self.flagged_groups],
            "failed": self.failed,
        }


@dataclass
class CalibrationResult:
    """Everything one calibration campaign measured."""

    config: CalibrationConfig
    cells: List[CellResult]
    pairs: List[PairSummary]
    bias: List[BiasResult]
    rewrite_mismatches: List[str]
    elapsed_seconds: float

    @property
    def flags(self) -> List[str]:
        """Human-readable defect descriptions (empty = calibrated)."""
        out: List[str] = []
        for pair in self.pairs:
            if pair.failed:
                out.append(
                    f"pair {pair.allocation}×{pair.rewrite}: pooled "
                    f"{pair.bound}-bound coverage {pair.check.coverage:.4f} "
                    f"outside Wilson band "
                    f"[{pair.check.band_low:.4f}, {pair.check.band_high:.4f}] "
                    f"around nominal {pair.check.nominal}"
                )
        for cell in self.cells:
            if cell.failed:
                out.append(
                    f"cell {cell.allocation}×{cell.rewrite}×{cell.bound} "
                    f"{cell.query}/{cell.aggregate}: coverage "
                    f"{cell.check.coverage:.4f} verdict {cell.check.verdict} "
                    f"(nominal {cell.check.nominal}, "
                    f"{cell.check.covered}/{cell.check.trials} trials)"
                )
        for result in self.bias:
            if result.failed:
                out.append(
                    f"bias {result.allocation} {result.query}/"
                    f"{result.aggregate} ({result.func}): "
                    f"{len(result.flagged_groups)} group(s) flagged, "
                    f"max |t| = {result.max_abs_t:.2f}, mean relative bias "
                    f"{result.mean_relative_bias:.4%}"
                )
        out.extend(self.rewrite_mismatches)
        return out

    @property
    def passed(self) -> bool:
        return not self.flags

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "passed": self.passed,
            "flags": self.flags,
            "pairs": [p.to_dict() for p in self.pairs],
            "cells": [c.to_dict() for c in self.cells],
            "bias": [b.to_dict() for b in self.bias],
            "rewrite_mismatches": list(self.rewrite_mismatches),
            "elapsed_seconds": self.elapsed_seconds,
        }


class _Accumulator:
    """Mutable per-cell and per-group tallies during the replication loop."""

    def __init__(self) -> None:
        # (alloc, rewrite, bound, query, alias) -> [covered, trials,
        #                           missing, unbounded, low_support, exact]
        self.coverage: Dict[Tuple, List[int]] = {}
        # (alloc, query, alias, group) -> [sum_err, sum_sq_err, n, truth]
        self.bias: Dict[Tuple, List[float]] = {}
        self.mismatches: List[str] = []

    def cell(self, key: Tuple) -> List[int]:
        return self.coverage.setdefault(key, [0, 0, 0, 0, 0, 0])


class CalibrationRunner:
    """Run one calibration campaign over the configured grid."""

    def __init__(
        self,
        config: Optional[CalibrationConfig] = None,
        telemetry: Union[Telemetry, bool, None] = None,
    ):
        self.config = config or CalibrationConfig.quick()
        if telemetry is True:
            self.telemetry = Telemetry.enabled()
        elif isinstance(telemetry, Telemetry):
            self.telemetry = telemetry
        else:
            self.telemetry = Telemetry.disabled()

    # -- bound computation ---------------------------------------------------

    @staticmethod
    def _estimate_column(aggregate) -> Optional[object]:
        return None if aggregate.func == "count" else aggregate.expr

    def _halfwidth(
        self,
        bound: str,
        group_estimate: GroupEstimate,
        hoeffding: Optional[Dict[GroupKey, float]],
        key: GroupKey,
    ) -> float:
        if bound == "normal":
            if not group_estimate.variance >= 0:
                return float("nan")
            return normal_halfwidth(
                group_estimate.std_error, self.config.confidence
            )
        if bound == "chebyshev":
            if not group_estimate.variance >= 0:
                return float("nan")
            return chebyshev_halfwidth(
                group_estimate.std_error, self.config.confidence
            )
        if bound == "hoeffding":
            if hoeffding is None:
                return float("nan")
            return hoeffding.get(key, float("nan"))
        raise ValueError(f"unknown bound family {bound!r}")

    def _hoeffding_supported(self, query, aggregate, grouping) -> bool:
        return aggregate.func in ("sum", "count") and set(
            query.group_by
        ) <= set(grouping)

    # -- the replication loop ------------------------------------------------

    def run(self, testbed: Optional[Testbed] = None) -> CalibrationResult:
        config = self.config
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        start = time.perf_counter()
        with tracer.span("calibration", replications=config.replications):
            with tracer.span("testbed"):
                if testbed is None:
                    testbed = Testbed(config.testbed)
                truths = {
                    qc.name: testbed.truth(qc) for qc in testbed.queries
                }
            acc = _Accumulator()
            rng = np.random.default_rng(config.seed)
            streams = rng.spawn(len(config.allocations) * config.replications)
            for a, alloc_name in enumerate(config.allocations):
                with tracer.span("allocation", strategy=alloc_name):
                    for r in range(config.replications):
                        self._one_replication(
                            testbed,
                            truths,
                            alloc_name,
                            streams[a * config.replications + r],
                            acc,
                        )
                if metrics.enabled:
                    metrics.counter(
                        "verify_replications_total",
                        "Calibration replications executed, per allocation.",
                        ("allocation",),
                    ).inc(config.replications, allocation=alloc_name)
            result = self._summarize(
                testbed, acc, time.perf_counter() - start
            )
        if metrics.enabled:
            for cell in result.cells:
                metrics.counter(
                    "verify_cells_total",
                    "Calibration cells checked, by coverage verdict.",
                    ("verdict",),
                ).inc(verdict=cell.check.verdict)
            metrics.counter(
                "verify_flags_total",
                "Defects flagged by the calibration harness.",
            ).inc(len(result.flags))
            metrics.histogram(
                "verify_calibration_seconds",
                "Wall time of one calibration campaign.",
            ).observe(result.elapsed_seconds)
        return result

    def _one_replication(
        self,
        testbed: Testbed,
        truths: Dict[str, Dict[str, Dict[GroupKey, float]]],
        alloc_name: str,
        rng: np.random.Generator,
        acc: _Accumulator,
    ) -> None:
        config = self.config
        sample = build_sample(
            allocation_by_name(alloc_name),
            testbed.table,
            testbed.grouping_columns,
            config.budget,
            rng=rng,
        )
        # Direct estimator pass: values, variances, Hoeffding inputs --
        # shared by every rewrite (the bound attachment path of the system).
        estimates: Dict[Tuple[str, str], Dict[GroupKey, GroupEstimate]] = {}
        hoeffding: Dict[Tuple[str, str], Optional[Dict[GroupKey, float]]] = {}
        for qc in testbed.queries:
            query = qc.query
            for aggregate in query.aggregates():
                cell = (qc.name, aggregate.alias)
                estimates[cell] = estimate(
                    sample,
                    aggregate.func,
                    self._estimate_column(aggregate),
                    predicate=query.where,
                    group_by=query.group_by,
                )
                if "hoeffding" in config.bounds and self._hoeffding_supported(
                    query, aggregate, testbed.grouping_columns
                ):
                    hoeffding[cell] = hoeffding_halfwidths(
                        testbed.table,
                        sample,
                        aggregate,
                        query.group_by,
                        config.confidence,
                    )
                else:
                    hoeffding[cell] = None

        for rewrite_name in config.rewrites:
            strategy = strategy_by_name(rewrite_name)
            synopsis = strategy.install(
                sample, TABLE_NAME, testbed.catalog, replace=True
            )
            for qc in testbed.queries:
                query = qc.query
                executed = strategy.plan(query, synopsis).execute(
                    testbed.catalog
                )
                by_group = result_by_group(executed, query)
                self._score_query(
                    testbed, truths, acc, alloc_name, rewrite_name, qc,
                    by_group, estimates, hoeffding,
                )

        # Bias accumulators are rewrite-independent (agreement is asserted
        # above); accumulate once per replication from the estimator values.
        for qc in testbed.queries:
            for aggregate in qc.query.aggregates():
                cell = (qc.name, aggregate.alias)
                truth = truths[qc.name][aggregate.alias]
                for key, group_estimate in estimates[cell].items():
                    true_value = truth.get(key)
                    if true_value is None:
                        continue
                    error = (
                        group_estimate.value * config.tamper_scale
                        - true_value
                    )
                    slot = acc.bias.setdefault(
                        (alloc_name, qc.name, aggregate.alias, key),
                        [0.0, 0.0, 0, true_value],
                    )
                    slot[0] += error
                    slot[1] += error * error
                    slot[2] += 1

    def _score_query(
        self,
        testbed: Testbed,
        truths,
        acc: _Accumulator,
        alloc_name: str,
        rewrite_name: str,
        qc: QueryClass,
        by_group: Dict[str, Dict[GroupKey, float]],
        estimates,
        hoeffding,
    ) -> None:
        config = self.config
        for aggregate in qc.query.aggregates():
            alias = aggregate.alias
            cell = (qc.name, alias)
            truth = truths[qc.name][alias]
            direct = estimates[cell]
            values = by_group.get(alias, {})
            # Rewrite agreement: the executed plan must reproduce the
            # direct estimator exactly (modulo float roundoff).
            for key, value in values.items():
                expected = direct.get(key)
                if expected is not None and not math.isclose(
                    value,
                    expected.value,
                    rel_tol=_REWRITE_AGREEMENT_RTOL,
                    abs_tol=1e-9,
                ):
                    acc.mismatches.append(
                        f"rewrite {rewrite_name} disagrees with the direct "
                        f"estimator on {qc.name}/{alias} group {key}: "
                        f"{value!r} vs {expected.value!r} "
                        f"({alloc_name} allocation)"
                    )
            for bound in config.bounds:
                if bound == "hoeffding" and hoeffding[cell] is None:
                    continue
                tallies = acc.cell(
                    (alloc_name, rewrite_name, bound, qc.name, alias)
                )
                for key, true_value in truth.items():
                    group_estimate = direct.get(key)
                    if group_estimate is None or key not in values:
                        tallies[2] += 1  # missing group
                        continue
                    if (
                        bound in EXACT_LEVEL_BOUNDS
                        and group_estimate.sample_tuples
                        < config.normal_min_support
                    ):
                        # CLT-based bounds are not promised below this
                        # support (the serve-time guard repairs such
                        # groups); record rather than coverage-test.
                        tallies[4] += 1
                        continue
                    halfwidth = self._halfwidth(
                        bound, group_estimate, hoeffding[cell], key
                    )
                    if not math.isfinite(halfwidth):
                        tallies[3] += 1  # unusable bound
                        continue
                    tampered = values[key] * config.tamper_scale
                    roundoff = 1e-9 * max(1.0, abs(true_value))
                    if halfwidth == 0.0 and abs(tampered - true_value) <= (
                        roundoff
                    ):
                        # A zero halfwidth claims the estimate is exact
                        # (e.g. COUNT with no predicate: every stratum
                        # contributes exactly N_g).  The claim holds to
                        # float precision, but a deterministic quantity
                        # says nothing about *statistical* calibration,
                        # so it is not a coverage trial.  A zero
                        # halfwidth with real error falls through and
                        # fails coverage -- that is the overconfidence
                        # defect this harness exists to catch.
                        tallies[5] += 1
                        continue
                    tallies[1] += 1
                    # The roundoff allowance keeps statistical bounds from
                    # failing on ~1e-13 float noise in the rewrites'
                    # sum-of-scale-factors arithmetic.
                    if abs(tampered - true_value) <= halfwidth + roundoff:
                        tallies[0] += 1

    # -- summarization -------------------------------------------------------

    def _summarize(
        self, testbed: Testbed, acc: _Accumulator, elapsed: float
    ) -> CalibrationResult:
        config = self.config
        cells = [
            CellResult(
                allocation=alloc,
                rewrite=rewrite,
                bound=bound,
                query=query,
                aggregate=alias,
                check=check_coverage(
                    covered, trials, config.confidence, bound,
                    config.band_confidence,
                ),
                missing=missing,
                unbounded=unbounded,
                low_support=low_support,
                exact=exact,
            )
            for (alloc, rewrite, bound, query, alias), (
                covered, trials, missing, unbounded, low_support, exact,
            ) in sorted(acc.coverage.items())
        ]

        pooled: Dict[Tuple[str, str], List[int]] = {}
        for cell in cells:
            if cell.bound not in EXACT_LEVEL_BOUNDS:
                continue
            slot = pooled.setdefault((cell.allocation, cell.rewrite), [0, 0])
            slot[0] += cell.check.covered
            slot[1] += cell.check.trials
        pairs = [
            PairSummary(
                allocation=alloc,
                rewrite=rewrite,
                bound=EXACT_LEVEL_BOUNDS[0],
                check=check_coverage(
                    covered, trials, config.confidence,
                    EXACT_LEVEL_BOUNDS[0], config.band_confidence,
                ),
            )
            for (alloc, rewrite), (covered, trials) in sorted(pooled.items())
        ]

        func_of = {
            (qc.name, a.alias): a.func
            for qc in testbed.queries
            for a in qc.query.aggregates()
        }
        grouped: Dict[Tuple[str, str, str], List[Tuple[GroupKey, List[float]]]] = {}
        for (alloc, query, alias, key), slot in acc.bias.items():
            grouped.setdefault((alloc, query, alias), []).append((key, slot))
        bias_results: List[BiasResult] = []
        for (alloc, query, alias), entries in sorted(grouped.items()):
            func = func_of[(query, alias)]
            max_abs_t, worst = 0.0, None
            rel_biases: List[float] = []
            sq_errors: List[float] = []
            flagged: List[GroupKey] = []
            for key, (sum_err, sum_sq, n, true_value) in entries:
                if n < config.min_bias_replications:
                    continue
                mean_err = sum_err / n
                sq_errors.append(sum_sq / n)
                if true_value != 0:
                    rel_biases.append(mean_err / abs(true_value))
                roundoff = 1e-9 * max(1.0, abs(true_value))
                if func in ("sum", "count"):
                    if abs(mean_err) <= roundoff:
                        # Exact to float precision (deterministic
                        # estimates, e.g. unfiltered COUNT, reproduce the
                        # same ~1e-13 arithmetic error every replication,
                        # which a t-statistic would read as an infinitely
                        # significant bias).
                        continue
                    t = bias_t_statistic(sum_err, sum_sq, n)
                    if math.isfinite(t) and abs(t) > max_abs_t:
                        max_abs_t, worst = abs(t), key
                    elif math.isinf(t):
                        max_abs_t, worst = float("inf"), key
                    if not (abs(t) <= config.bias_t_threshold):
                        flagged.append(key)
                else:
                    # avg: a ratio estimator, only asymptotically
                    # unbiased, so a tolerance check -- widened by the
                    # replication noise of the mean error itself, or
                    # small low-support groups would flag on sampling
                    # noise rather than bias.
                    var = (
                        max(sum_sq - n * mean_err * mean_err, 0.0) / (n - 1)
                        if n > 1
                        else 0.0
                    )
                    noise = config.bias_t_threshold * math.sqrt(var / n)
                    if true_value != 0 and abs(mean_err) > (
                        config.avg_bias_tolerance * abs(true_value) + noise
                    ):
                        flagged.append(key)
            bias_results.append(
                BiasResult(
                    allocation=alloc,
                    query=query,
                    aggregate=alias,
                    func=func,
                    groups=len(entries),
                    max_abs_t=max_abs_t,
                    worst_group=worst,
                    mean_relative_bias=(
                        float(np.mean(rel_biases)) if rel_biases else 0.0
                    ),
                    rmse=(
                        float(math.sqrt(np.mean(sq_errors)))
                        if sq_errors
                        else 0.0
                    ),
                    flagged_groups=tuple(flagged),
                )
            )
        # Cap mismatch spam: one line per distinct (rewrite, query, alias).
        seen, mismatches = set(), []
        for message in acc.mismatches:
            head = message.split(" group ")[0]
            if head not in seen:
                seen.add(head)
                mismatches.append(message)
        return CalibrationResult(
            config=config,
            cells=cells,
            pairs=pairs,
            bias=bias_results,
            rewrite_mismatches=mismatches,
            elapsed_seconds=elapsed,
        )


def negative_control(
    seed: int = 2026, tamper_scale: float = 1.1
) -> CalibrationResult:
    """Prove the harness has power: a deliberately biased estimator
    (every estimate scaled by ``tamper_scale``) must be flagged.

    Runs a deliberately small single-configuration campaign; the result's
    ``passed`` must be ``False`` with both coverage and bias flags.
    """
    config = CalibrationConfig(
        seed=seed,
        replications=16,
        budget=600,
        allocations=("congress",),
        rewrites=("integrated",),
        bounds=("normal",),
        testbed=TestbedConfig(query_names=("Qg2",)),
        tamper_scale=tamper_scale,
    )
    return CalibrationRunner(config).run()
