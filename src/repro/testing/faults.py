"""Deterministic fault injection for Aqua synopses.

The guarded answer path (:mod:`repro.aqua.guard`) promises that a damaged
synopsis never surfaces as ``NaN`` aggregates or a bare crash -- every fault
either degrades to a valid guarded answer (with honest per-group provenance)
or raises a typed :class:`~repro.errors.AquaError`.  This module manufactures
the damage, deterministically, so the promise can be tested:

* **drop_stratum** -- a stratum vanishes wholesale (as if its sample
  relation partition were lost); detected by the base-coverage check.
* **corrupt_scale_factor** -- a stratum's population is zeroed while its
  sampled rows remain, driving the scale factor to zero (the classic
  "stale statistics" corruption); caught by structural validation.
* **truncate_sample** -- a stratum is cut to a handful of rows but keeps
  its population, starving one group of support; caught by the per-group
  support threshold and repaired from the base table.
* **empty_allocation** -- a stratum keeps its population but loses every
  sample row, making its group invisible to the synopsis; caught by
  missing-group detection and repaired.
* **corrupt_row_indices** -- sample row indices point outside the base
  table (torn metadata); caught by structural validation.
* **stale** -- inserts accumulate without a refresh; caught by the
  staleness limit / drift tracking.

Faults are injected through :meth:`AquaSystem._install` where the mutated
sample can still be materialized, so the synopsis relations in the catalog
really reflect the damage; unmaterializable faults (out-of-bounds indices)
are patched directly onto the installed :class:`~repro.aqua.synopsis.Synopsis`.

The second injector, :class:`ServiceFaultInjector`, targets the *serving*
path (:mod:`repro.serve`) rather than synopsis contents.  Its faults are
deterministic by construction -- no wall-clock sleeps, no randomness:

* **gate_queries** -- every ``answer()`` call blocks on a
  :class:`threading.Event` until the test releases it, polling the active
  serve deadline while parked.  This saturates a worker pool on demand,
  making admission-control rejections reproducible.
* **error_burst** -- the next *N* ``answer()`` calls raise a
  :class:`~repro.errors.TransientError` (or a caller-supplied exception),
  exercising the retry policy and circuit breaker with an exact failure
  count.
* **slow_scan** -- the synopsis sample rows every answer's moments scan
  reads are replaced with a :class:`SlowScanTable` that charges a
  :class:`ManualClock` per column read and honors the active deadline,
  so "this scan takes 50 ms" is a statement about the manual clock, not
  the machine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..aqua.system import AquaSystem
from ..engine.table import Table
from ..errors import AquaError, TransientError
from ..sampling.groups import GroupKey
from ..sampling.stratified import SampleFrame, StratifiedSample, Stratum
from ..serve.deadline import ManualClock, check_deadline

__all__ = [
    "FAULT_KINDS",
    "AnswerTamper",
    "FaultInjector",
    "InjectedFault",
    "ManualClock",
    "ServiceFaultInjector",
    "SlowScanTable",
    "inject",
]

#: Every fault kind :func:`inject` understands, for parametrized tests.
FAULT_KINDS = (
    "drop_stratum",
    "corrupt_scale_factor",
    "truncate_sample",
    "empty_allocation",
    "corrupt_row_indices",
    "stale",
)


@dataclass(frozen=True)
class InjectedFault:
    """A record of one injected fault, for test assertions and logging."""

    kind: str
    table: str
    key: Optional[GroupKey]
    detail: str


class FaultInjector:
    """Deterministically damage an :class:`AquaSystem`'s synopses."""

    def __init__(self, system: AquaSystem):
        self.system = system

    # -- fault constructors --------------------------------------------------

    def drop_stratum(
        self, name: str, key: Optional[GroupKey] = None
    ) -> InjectedFault:
        """Remove one stratum from the synopsis entirely."""
        sample = self.system.synopsis(name).sample
        key = self._target_key(sample, key)
        strata = sample.strata
        del strata[key]
        self._reinstall(name, sample, strata)
        return InjectedFault(
            "drop_stratum", name, key, f"stratum {key} removed"
        )

    def corrupt_scale_factor(
        self, name: str, key: Optional[GroupKey] = None, population: int = 0
    ) -> InjectedFault:
        """Zero (or otherwise corrupt) one stratum's population.

        The scale factor is population / sample size, so a zeroed population
        with surviving sample rows yields a zero scale factor -- every
        estimate touching the stratum silently shrinks unless caught.
        """
        sample = self.system.synopsis(name).sample
        key = self._target_key(sample, key)
        strata = sample.strata
        old = strata[key]
        strata[key] = Stratum(key, population, old.row_indices)
        self._reinstall(name, sample, strata)
        return InjectedFault(
            "corrupt_scale_factor",
            name,
            key,
            f"population {old.population} -> {population} with "
            f"{old.sample_size} sampled rows",
        )

    def truncate_sample(
        self, name: str, key: Optional[GroupKey] = None, keep: int = 1
    ) -> InjectedFault:
        """Cut one stratum's sample to ``keep`` rows, keeping its population."""
        sample = self.system.synopsis(name).sample
        key = self._target_key(sample, key)
        strata = sample.strata
        old = strata[key]
        strata[key] = Stratum(key, old.population, old.row_indices[:keep])
        self._reinstall(name, sample, strata)
        return InjectedFault(
            "truncate_sample",
            name,
            key,
            f"sample cut from {old.sample_size} to "
            f"{min(keep, old.sample_size)} rows",
        )

    def empty_allocation(
        self, name: str, key: Optional[GroupKey] = None
    ) -> InjectedFault:
        """Strip every sample row from one stratum, keeping its population."""
        sample = self.system.synopsis(name).sample
        key = self._target_key(sample, key)
        strata = sample.strata
        old = strata[key]
        strata[key] = Stratum(
            key, old.population, np.empty(0, dtype=np.int64)
        )
        self._reinstall(name, sample, strata)
        return InjectedFault(
            "empty_allocation",
            name,
            key,
            f"all {old.sample_size} sampled rows removed "
            f"(population {old.population} kept)",
        )

    def corrupt_row_indices(
        self, name: str, key: Optional[GroupKey] = None
    ) -> InjectedFault:
        """Point one stratum's sample rows outside the base table."""
        sample = self.system.synopsis(name).sample
        key = self._target_key(sample, key)
        strata = sample.strata
        old = strata[key]
        num_base = sample.base_table.num_rows
        strata[key] = Stratum(
            key, old.population, old.row_indices + num_base
        )
        self._reinstall(name, sample, strata)
        return InjectedFault(
            "corrupt_row_indices",
            name,
            key,
            f"row indices shifted past the {num_base}-row base table",
        )

    def make_stale(self, name: str, rows: int = 25) -> InjectedFault:
        """Insert ``rows`` duplicates of the first base row, no refresh."""
        first = next(iter(self.system._state(name).table.iter_rows()))
        for __ in range(rows):
            self.system.insert(name, first)
        return InjectedFault(
            "stale", name, None, f"{rows} inserts buffered without refresh"
        )

    # -- plumbing ------------------------------------------------------------

    def _target_key(
        self, sample: StratifiedSample, key: Optional[GroupKey]
    ) -> GroupKey:
        """Resolve the target stratum: explicit, else first sampled in order."""
        if key is not None:
            if key not in sample.strata:
                raise AquaError(f"no stratum {key!r} to inject a fault into")
            return key
        for candidate, stratum in sorted(sample.strata.items()):
            if stratum.sample_size > 0:
                return candidate
        raise AquaError("sample has no nonempty stratum to inject a fault into")

    def _reinstall(
        self,
        name: str,
        sample: StratifiedSample,
        strata: Dict[GroupKey, Stratum],
    ) -> None:
        """Install the mutated sample, materializing it when possible.

        Faults that cannot be materialized (e.g. out-of-bounds row indices
        make ``base.take`` fail) are instead patched onto the installed
        synopsis object -- the damage then lives in the synopsis metadata,
        which is exactly where validation must catch it.
        """
        mutated = StratifiedSample(
            sample.base_table, sample.grouping_columns, strata
        )
        try:
            self.system._install(name, mutated)
        except Exception:
            self.system.synopsis(name).sample = mutated


class _SlowScanState:
    """Shared toll meter for a :class:`SlowScanTable` and its derivatives."""

    __slots__ = ("clock", "cost", "stage", "reads")

    def __init__(self, clock: ManualClock, cost: float, stage: str):
        self.clock = clock
        self.cost = cost
        self.stage = stage
        self.reads = 0

    def toll(self) -> None:
        self.reads += 1
        self.clock.advance(self.cost)
        check_deadline(self.stage)


class SlowScanTable(Table):
    """A table whose reads cost manual-clock time and honor deadlines.

    Each read -- a :meth:`column` access, or the :meth:`project` /
    :meth:`filter` a :class:`~repro.plan.logical.Scan` applies -- advances
    ``clock`` by ``cost_seconds`` and then checks the active serve
    deadline, so a scan's duration (and whether it dies mid-way) is fully
    determined by the test, not by machine speed.  ``project``/``filter``
    results stay slow and share one toll meter, so downstream GROUP BY
    column reads keep charging the same clock.
    """

    def __init__(
        self,
        table: Table,
        clock: Optional[ManualClock] = None,
        cost_seconds: float = 0.0,
        stage: str = "scan",
        _state: Optional[_SlowScanState] = None,
    ):
        super().__init__(table.schema, table.columns())
        if _state is None:
            if clock is None:
                raise ValueError("SlowScanTable needs a clock or shared state")
            _state = _SlowScanState(clock, float(cost_seconds), stage)
        self._slow = _state

    @property
    def reads(self) -> int:
        return self._slow.reads

    def column(self, name: str) -> np.ndarray:
        self._slow.toll()
        return super().column(name)

    def take(self, indices) -> "SlowScanTable":
        # Chunked streaming cuts its per-chunk row subsets with take(), so
        # a streamed scan of a slow table must charge the clock per chunk.
        self._slow.toll()
        return SlowScanTable(super().take(indices), _state=self._slow)

    def project(self, names) -> "SlowScanTable":
        self._slow.toll()
        return SlowScanTable(super().project(names), _state=self._slow)

    def filter(self, mask) -> "SlowScanTable":
        self._slow.toll()
        return SlowScanTable(super().filter(mask), _state=self._slow)


class ServiceFaultInjector:
    """Deterministic serving-path faults: gates, error bursts, slow scans.

    Usable as a context manager; :meth:`restore` (or ``__exit__``) releases
    any gate, clears pending error bursts, and puts original sample
    relations back in the catalog.
    """

    def __init__(self, system: AquaSystem):
        self.system = system
        self._lock = threading.Lock()
        self._original_answer: Optional[Callable] = None
        self._gate: Optional[threading.Event] = None
        self._burst_remaining = 0
        self._burst_factory: Callable[[], Exception] = lambda: TransientError(
            "injected transient fault"
        )
        self._slow_frames: List[Tuple[SampleFrame, Table]] = []
        self._slow_bases: Dict[str, Table] = {}

    # -- fault constructors --------------------------------------------------

    def gate_queries(self) -> threading.Event:
        """Block every ``answer()`` call until the returned event is set.

        Parked calls poll the event in short waits and check the active
        serve deadline between polls, so a gated query under a deadline
        dies with a typed :class:`~repro.errors.DeadlineExceeded` (stage
        ``"gated"``) instead of hanging the worker forever.
        """
        gate = threading.Event()
        self._gate = gate
        self._wrap_answer()
        return gate

    def release(self) -> None:
        """Open the gate (if any), letting parked queries proceed."""
        if self._gate is not None:
            self._gate.set()

    def error_burst(
        self, count: int = 1, factory: Optional[Callable[[], Exception]] = None
    ) -> None:
        """Make the next ``count`` ``answer()`` calls raise.

        The default exception is a retryable
        :class:`~repro.errors.TransientError`; pass ``factory`` to raise
        something else (e.g. a non-retryable error to trip the breaker).
        """
        with self._lock:
            self._burst_remaining += count
            if factory is not None:
                self._burst_factory = factory
        self._wrap_answer()

    def slow_scan(
        self,
        name: str,
        cost_seconds: float,
        clock: ManualClock,
        stage: str = "scan",
    ) -> SlowScanTable:
        """Replace the rows of ``name``'s synopsis sample with a
        :class:`SlowScanTable`.

        Every column the moments kernel reads from the sample then advances
        ``clock`` by ``cost_seconds`` and checks the active deadline.
        Returns the instrumented table (its ``reads`` counter is useful in
        assertions).  A rebuilt sample is a fresh, unslowed one.
        """
        frame = self.system.synopsis(name).sample.frame
        original = frame.rows
        slow = SlowScanTable(original, clock, cost_seconds, stage)
        frame.__dict__["rows"] = slow  # the frame's cached_property slot
        self._slow_frames.append((frame, original))
        return slow

    def slow_base_scan(
        self,
        name: str,
        cost_seconds: float,
        clock: ManualClock,
        stage: str = "scan",
    ) -> SlowScanTable:
        """Replace ``name``'s *base* relation with a :class:`SlowScanTable`.

        The streaming path (:meth:`AquaSystem.sql_stream`) scans the base
        relation, not the synopsis sample, so mid-stream deadline tests
        slow the base: each chunk cut then advances ``clock`` by
        ``cost_seconds`` and checks the active deadline.
        """
        original = self.system._state(name).table
        slow = SlowScanTable(original, clock, cost_seconds, stage)
        self._replace_base(name, slow)
        self._slow_bases.setdefault(name, original)
        return slow

    # -- teardown ------------------------------------------------------------

    def restore(self) -> None:
        """Undo every injected fault and release any parked queries."""
        if self._original_answer is not None:
            self.system.__dict__.pop("answer", None)
            self._original_answer = None
        if self._gate is not None:
            self._gate.set()
            self._gate = None
        with self._lock:
            self._burst_remaining = 0
        for frame, original in reversed(self._slow_frames):
            frame.__dict__["rows"] = original
        self._slow_frames.clear()
        for name, original in self._slow_bases.items():
            self._replace_base(name, original)
        self._slow_bases.clear()

    def __enter__(self) -> "ServiceFaultInjector":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.restore()
        return False

    # -- plumbing ------------------------------------------------------------

    def _replace_base(self, name: str, table: Table) -> None:
        """Publish ``table`` as ``name``'s base relation (and the catalog's)."""
        self.system._publish(name, lambda current: current.next(table=table))

    def _wrap_answer(self) -> None:
        """Shadow ``system.answer`` with the gate/burst front door (once)."""
        if self._original_answer is not None:
            return
        original = self.system.answer
        self._original_answer = original
        injector = self

        def answer(*args, **kwargs):
            gate = injector._gate
            if gate is not None:
                while not gate.wait(0.005):
                    check_deadline("gated")
            with injector._lock:
                if injector._burst_remaining > 0:
                    injector._burst_remaining -= 1
                    raise injector._burst_factory()
            return original(*args, **kwargs)

        self.system.answer = answer


class AnswerTamper:
    """Silently scale every bounded aggregate *after* bounds are attached.

    The serving-path twin of the calibration harness's ``tamper_scale``
    negative control: estimates are multiplied by ``scale`` while their
    ``<alias>_error`` half-widths (computed from the untampered estimates)
    are left alone, so the answer silently breaks its own promise.  The
    guard does not notice -- a scaled estimate makes the *relative*
    half-width look better, not worse -- which is exactly the failure mode
    only the accuracy auditor can catch.

    Usable as a context manager; :meth:`restore` (or ``__exit__``) removes
    the shadow.  Note the answer cache: answers cached before the tamper
    was installed are served untampered (tests should use fresh queries or
    a cache-disabled system when that matters).
    """

    def __init__(self, system: AquaSystem, scale: float = 1.1):
        self.system = system
        self.scale = float(scale)
        self._installed = False
        self.tampered = 0

    def install(self) -> "AnswerTamper":
        if self._installed:
            return self
        original = self.system._bounded_answer
        tamper = self

        # Every freshly computed answer reaches the guard through
        # ``_bounded_answer``; tamper it on the way.
        def _bounded_answer(query, view, result, *args, **kwargs):
            columns = dict(result.columns())
            touched = False
            for name in list(columns):
                if name.endswith("_error"):
                    continue
                if f"{name}_error" not in result.schema:
                    continue
                columns[name] = np.asarray(columns[name]) * tamper.scale
                touched = True
            if touched:
                tamper.tampered += 1
                result = Table(result.schema, columns)
            return original(query, view, result, *args, **kwargs)

        self.system._bounded_answer = _bounded_answer
        self._installed = True
        return self

    def restore(self) -> None:
        if self._installed:
            self.system.__dict__.pop("_bounded_answer", None)
            self._installed = False

    def __enter__(self) -> "AnswerTamper":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.restore()
        return False


def inject(system: AquaSystem, kind: str, table: str) -> InjectedFault:
    """Inject one fault by kind name (see :data:`FAULT_KINDS`)."""
    injector = FaultInjector(system)
    if kind == "drop_stratum":
        return injector.drop_stratum(table)
    if kind == "corrupt_scale_factor":
        return injector.corrupt_scale_factor(table)
    if kind == "truncate_sample":
        return injector.truncate_sample(table)
    if kind == "empty_allocation":
        return injector.empty_allocation(table)
    if kind == "corrupt_row_indices":
        return injector.corrupt_row_indices(table)
    if kind == "stale":
        return injector.make_stale(table)
    raise AquaError(
        f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
    )
