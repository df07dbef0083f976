"""Replication-based calibration of the portfolio budget contract.

The calibration campaign (:mod:`repro.verify.calibration`) checks the
*estimator* layer: bounds attached to raw congressional samples.  This
cell checks the *serving* contract one level up: when a query is answered
through :meth:`~repro.aqua.system.AquaSystem.answer` with
``max_rel_error=e``, the full pipeline -- portfolio member selection,
plan rewrite, guard escalation -- must deliver answers whose per-group
error actually stays within ``e`` at least as often as the system's
confidence level promises.

Per replication a fresh :class:`~repro.aqua.AquaSystem` is built over the
seeded Zipf testbed, a default three-member portfolio is constructed, and
every configured query class is answered under every error budget.  Two
things are scored:

* **promise honesty** -- the answer's promised relative error must never
  exceed the requested budget (this is structural: the budget tightens
  the guard policy, so a violation is a wiring defect, not noise);
* **coverage** -- the fraction of (replication, answer group, aggregate)
  trials whose observed relative error ``|estimate - truth|`` stayed
  within ``e * |estimate|`` must be at or above the nominal confidence,
  with the same Wilson tolerance band as the estimator campaign.  The
  bounds behind the promise are Chebyshev (conservative), so only
  under-coverage is a defect; groups the guard repaired or answered
  exactly count as (trivially covered) trials -- the contract is on the
  served answer, whatever provenance produced it.

Results are recorded alongside the estimator campaign in
``benchmarks/results/CALIBRATION.json`` via
:class:`~repro.verify.report.VerificationReport`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aqua import AquaSystem
from .stats import CoverageCheck, check_coverage
from .testbed import TABLE_NAME, Testbed, TestbedConfig, result_by_group

__all__ = [
    "BudgetCell",
    "PortfolioCellConfig",
    "PortfolioCalibrationResult",
    "run_portfolio_calibration",
]

#: Tolerance for "promised <= budget" comparisons (float roundoff only --
#: the guard tightening makes the inequality structural).
_PROMISE_RTOL = 1e-9


@dataclass(frozen=True)
class PortfolioCellConfig:
    """One portfolio-contract campaign.

    Attributes:
        seed: master seed; replications draw from independent spawned
            streams.
        replications: independent portfolio builds per campaign.
        budgets: the ``max_rel_error`` grid every query is served under.
        space_budget: per-synopsis tuple budget handed to the system (the
            default portfolio ladder derives fine/mid/coarse sizes from
            it).
        confidence: the system confidence level; also the nominal level
            the coverage check tests against.
        query_names: testbed query classes to serve.
        testbed: Zipf relation knobs.
        band_confidence: two-sided confidence of the Wilson band.
    """

    seed: int = 2026
    replications: int = 10
    budgets: Tuple[float, ...] = (0.10, 0.30)
    space_budget: int = 600
    confidence: float = 0.95
    query_names: Tuple[str, ...] = ("Qg2", "Qg0")
    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    band_confidence: float = 0.999

    @classmethod
    def quick(cls, seed: int = 2026) -> "PortfolioCellConfig":
        """The CI-sized campaign (a few seconds)."""
        return cls(seed=seed)

    @classmethod
    def full(cls, seed: int = 2026) -> "PortfolioCellConfig":
        """The nightly campaign: more replications, a larger portfolio."""
        return cls(seed=seed, replications=24, space_budget=1200)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "replications": self.replications,
            "budgets": list(self.budgets),
            "space_budget": self.space_budget,
            "confidence": self.confidence,
            "query_names": list(self.query_names),
            "testbed": self.testbed.to_dict(),
            "band_confidence": self.band_confidence,
        }


@dataclass(frozen=True)
class BudgetCell:
    """Contract verdict for one query class x error budget.

    ``promise_violations`` counts answers whose promised relative error
    exceeded the requested budget -- always a defect.  ``missing`` counts
    truth groups absent from the served answer (the guard repairs empty
    strata, so this should be zero on the testbed).  ``chosen`` tallies
    which portfolio member served each replication.
    """

    query: str
    budget: float
    check: CoverageCheck
    chosen: Dict[str, int]
    promise_violations: int = 0
    missing: int = 0

    @property
    def failed(self) -> bool:
        return self.check.failed or self.promise_violations > 0

    def to_dict(self) -> dict:
        out = {
            "query": self.query,
            "budget": self.budget,
            "chosen": dict(self.chosen),
            "promise_violations": self.promise_violations,
            "missing": self.missing,
            "failed": self.failed,
        }
        out.update(self.check.to_dict())
        return out


@dataclass
class PortfolioCalibrationResult:
    """Everything one portfolio-contract campaign measured."""

    config: PortfolioCellConfig
    cells: List[BudgetCell]
    elapsed_seconds: float

    @property
    def flags(self) -> List[str]:
        out: List[str] = []
        for cell in self.cells:
            if cell.promise_violations:
                out.append(
                    f"portfolio {cell.query} @ budget {cell.budget}: "
                    f"{cell.promise_violations} answer(s) promised a "
                    f"relative error above the requested budget"
                )
            if cell.check.failed:
                out.append(
                    f"portfolio {cell.query} @ budget {cell.budget}: "
                    f"observed-error coverage {cell.check.coverage:.4f} "
                    f"below nominal {cell.check.nominal} (Wilson band "
                    f"[{cell.check.band_low:.4f}, "
                    f"{cell.check.band_high:.4f}], "
                    f"{cell.check.covered}/{cell.check.trials} trials)"
                )
        return out

    @property
    def passed(self) -> bool:
        return not self.flags

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "passed": self.passed,
            "flags": self.flags,
            "cells": [c.to_dict() for c in self.cells],
            "elapsed_seconds": self.elapsed_seconds,
        }


def run_portfolio_calibration(
    config: Optional[PortfolioCellConfig] = None,
    testbed: Optional[Testbed] = None,
) -> PortfolioCalibrationResult:
    """Run one portfolio-contract campaign (see the module docstring)."""
    config = config or PortfolioCellConfig.quick()
    start = time.perf_counter()
    if testbed is None:
        testbed = Testbed(
            TestbedConfig(
                **{
                    **config.testbed.to_dict(),
                    "query_names": tuple(config.query_names),
                }
            )
        )
    # Prefix match: instantiated classes carry their parameters in the
    # name (e.g. ``Qg0[1600,2400]`` from the ``"Qg0"`` config entry).
    queries = [
        qc
        for qc in testbed.queries
        if any(qc.name.startswith(n) for n in config.query_names)
    ]
    truths = {qc.name: testbed.truth(qc) for qc in queries}

    # (query, budget) -> [covered, trials, promise_violations, missing]
    tallies: Dict[Tuple[str, float], List[int]] = {}
    chosen: Dict[Tuple[str, float], Counter] = {}
    streams = np.random.default_rng(config.seed).spawn(config.replications)
    for stream in streams:
        system = AquaSystem(
            space_budget=config.space_budget,
            confidence=config.confidence,
            rng=stream,
            cache=False,
        )
        system.register_table(
            TABLE_NAME, testbed.table, testbed.grouping_columns
        )
        system.build_portfolio(TABLE_NAME)
        for qc in queries:
            for budget in config.budgets:
                answer = system.answer(qc.query, max_rel_error=budget)
                slot = tallies.setdefault((qc.name, budget), [0, 0, 0, 0])
                picks = chosen.setdefault((qc.name, budget), Counter())
                if answer.chosen_synopsis is not None:
                    picks[answer.chosen_synopsis] += 1
                promised = answer.promised_rel_error
                if promised is not None and promised > budget * (
                    1.0 + _PROMISE_RTOL
                ):
                    slot[2] += 1
                by_group = result_by_group(answer.result, qc.query)
                for alias, truth in truths[qc.name].items():
                    values = by_group.get(alias, {})
                    for key, true_value in truth.items():
                        estimate = values.get(key)
                        if estimate is None:
                            slot[3] += 1
                            continue
                        slot[1] += 1
                        roundoff = 1e-9 * max(1.0, abs(true_value))
                        if abs(estimate - true_value) <= (
                            budget * abs(estimate) + roundoff
                        ):
                            slot[0] += 1

    cells = [
        BudgetCell(
            query=query,
            budget=budget,
            check=check_coverage(
                covered,
                trials,
                config.confidence,
                "chebyshev",
                config.band_confidence,
            ),
            chosen=dict(chosen[(query, budget)]),
            promise_violations=violations,
            missing=missing,
        )
        for (query, budget), (covered, trials, violations, missing) in sorted(
            tallies.items()
        )
    ]
    return PortfolioCalibrationResult(
        config=config,
        cells=cells,
        elapsed_seconds=time.perf_counter() - start,
    )
