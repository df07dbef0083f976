"""Span-based tracing for the Aqua query pipeline.

The paper's value claim is quantitative -- per-query speedup and per-group
error -- yet a single end-to-end wall time cannot say *where* an answer's
time went: parsing, rewrite, the synopsis scan, aggregate scale-up, error
bounds, or a guard escalation.  AQP systems such as BlinkDB and VerdictDB
treat per-stage telemetry as first class; this module is the Aqua
equivalent, with zero third-party dependencies.

Three pieces:

* :class:`Span` -- one timed pipeline stage (``perf_counter`` wall time,
  free-form attributes, nested children, error status).  Spans are context
  managers and exception-safe: an exception closes the span, marks it
  ``status="error"``, and propagates.
* :class:`Tracer` -- hands out spans and maintains the nesting stack.  A
  disabled tracer (the default) returns a shared no-op span, so tracing
  costs one attribute check per call site when off.
* :class:`QueryTrace` -- the finished root span of one query, with stage
  accessors and a renderable tree (the shell's ``.trace`` view).
* :class:`TraceStore` -- tail-based retention: every finished trace is
  offered, but only the *interesting* ones (slow, degraded, errored, or
  later found bound-violating by the accuracy auditor) are kept; the rest
  pass through a small provisional ring so the auditor can still
  :meth:`~TraceStore.promote` one after the fact.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "QueryTrace",
    "RetentionPolicy",
    "Span",
    "TraceStore",
    "Tracer",
]


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    is_recording = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def add_child_timing(
        self, name: str, seconds: float, **attributes: Any
    ) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed, nestable stage of the query pipeline."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "status",
        "error",
        "_start",
        "_end",
        "_tracer",
    )

    is_recording = True

    def __init__(self, name: str, tracer: "Tracer", **attributes: Any):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List[Span] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self._start: Optional[float] = None
        self._end: Optional[float] = None
        self._tracer = tracer

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._end = perf_counter()
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return False  # never swallow

    # -- recording ----------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (row counts, strategy names, ...)."""
        self.attributes.update(attributes)
        return self

    def add_child_timing(
        self, name: str, seconds: float, **attributes: Any
    ) -> "Span":
        """Attach an already-measured child span.

        The tracer's nesting stack is not thread-safe, so work fanned out to
        a worker pool (e.g. the parallel executor's per-partition scans)
        measures its own wall time and the coordinating thread records it
        here after the fact.  The child is closed on arrival and never
        touches the stack.
        """
        child = Span(name, self._tracer, **attributes)
        child._start = 0.0
        child._end = float(seconds)
        self.children.append(child)
        return child

    @property
    def started(self) -> bool:
        return self._start is not None

    @property
    def finished(self) -> bool:
        return self._end is not None

    @property
    def duration_seconds(self) -> float:
        """Wall time; 0.0 until the span has both started and finished."""
        if self._start is None or self._end is None:
            return 0.0
        return self._end - self._start

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (depth-first) with the given name."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        """Indented one-line-per-span tree with millisecond durations."""
        millis = self.duration_seconds * 1000
        attrs = "".join(
            f" {key}={value}" for key, value in sorted(self.attributes.items())
        )
        flag = "" if self.status == "ok" else f" !{self.status}: {self.error}"
        lines = [f"{'  ' * indent}{self.name:<24s} {millis:9.3f} ms{attrs}{flag}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1000:.3f} ms, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """Hands out :class:`Span` objects and tracks their nesting.

    Usage (context manager or decorator)::

        tracer = Tracer(enabled=True)
        with tracer.span("answer") as root:
            with tracer.span("parse"):
                ...
        trace = QueryTrace(root)

        @tracer.traced("hot_path")
        def hot_path(...): ...

    A disabled tracer returns a shared no-op span: the cost of an
    instrumented call site is one ``enabled`` check.

    The nesting stack is *per thread*: concurrent serving workers share one
    tracer, and each worker's spans nest within that worker's own open
    span, never under another thread's.  (Span objects themselves are still
    single-writer -- only the thread that opened a span appends children to
    it, with :meth:`Span.add_child_timing` the explicit cross-thread
    hand-off for pool work measured elsewhere.)
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- switches ------------------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    # -- span creation -------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """A new span, nested under the currently-open span (if any)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, self, **attributes)

    def traced(self, name: Optional[str] = None, **attributes: Any):
        """Decorator form: wrap every call of ``fn`` in a span."""

        def decorate(fn: Callable) -> Callable:
            span_name = name if name is not None else fn.__qualname__

            def wrapper(*args: Any, **kwargs: Any):
                with self.span(span_name, **attributes):
                    return fn(*args, **kwargs)

            wrapper.__name__ = fn.__name__
            wrapper.__qualname__ = fn.__qualname__
            wrapper.__doc__ = fn.__doc__
            wrapper.__wrapped__ = fn
            return wrapper

        return decorate

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    # -- stack maintenance (called by Span) ----------------------------------

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Exception safety: close any children left open by a non-local
        # exit, then remove this span wherever it sits on the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break


#: Shared disabled tracer for call sites given no tracer of their own.
NULL_TRACER = Tracer(enabled=False)


class QueryTrace:
    """The completed trace of one answered query.

    Wraps the root span with stage-level accessors: the root's direct
    children are the pipeline stages (``parse``, ``cache_probe``,
    ``validate``, ``rollup_probe``, ``moments``, ``finalize``, ``guard``,
    ``cache_store``); a guard's base-table scans nest their ``op_*`` plan
    spans under ``guard``.
    """

    def __init__(self, root: Span):
        self.root = root

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of the traced pipeline."""
        return self.root.duration_seconds

    @property
    def stages(self) -> List[Span]:
        """Top-level pipeline stages, in execution order."""
        return list(self.root.children)

    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage wall time, summed over same-named top-level spans."""
        out: Dict[str, float] = {}
        for span in self.root.children:
            out[span.name] = out.get(span.name, 0.0) + span.duration_seconds
        return out

    def stage(self, name: str) -> Optional[Span]:
        """First stage (or nested span) with the given name."""
        if self.root.name == name:
            return self.root
        return self.root.find(name)

    @property
    def unaccounted_seconds(self) -> float:
        """Root time not covered by any top-level stage (should be ~0)."""
        return self.total_seconds - sum(self.stage_seconds().values())

    def to_dict(self) -> Dict[str, Any]:
        return self.root.to_dict()

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self) -> str:
        """The shell's ``.trace`` view: an indented span tree."""
        return self.root.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryTrace({self.root.name!r}, "
            f"{self.total_seconds * 1000:.3f} ms, "
            f"{len(self.stages)} stages)"
        )


@dataclass(frozen=True)
class RetentionPolicy:
    """Which finished traces are worth keeping.

    Attributes:
        capacity: retained (interesting) traces; oldest evicted first.
        recent_capacity: provisional ring of boring traces kept around
            briefly so a later signal (the auditor finding a bound
            violation) can still promote one by trace id.
        slow_threshold_seconds: traces at least this slow are retained;
            None disables the latency criterion.
        keep_degraded: retain traces of degraded answers.
        keep_errors: retain traces of failed answers.
    """

    capacity: int = 64
    recent_capacity: int = 64
    slow_threshold_seconds: Optional[float] = 1.0
    keep_degraded: bool = True
    keep_errors: bool = True

    def reason(
        self, trace: QueryTrace, degraded: bool, error: bool
    ) -> Optional[str]:
        """Why this trace should be retained, or None (drop to the ring)."""
        if error and self.keep_errors:
            return "error"
        if degraded and self.keep_degraded:
            return "degraded"
        if (
            self.slow_threshold_seconds is not None
            and trace.total_seconds >= self.slow_threshold_seconds
        ):
            return "slow"
        return None


class TraceStore:
    """Tail-based trace retention keyed by trace id.

    ``offer()`` is called once per finished answer; traces the policy
    finds interesting are retained immediately, the rest ride a bounded
    provisional ring.  The accuracy auditor -- which learns that a trace
    was interesting only after recomputing the exact answer -- calls
    ``promote()`` to move a provisional trace into the retained set.
    """

    def __init__(self, policy: Optional[RetentionPolicy] = None):
        self.policy = policy if policy is not None else RetentionPolicy()
        self._lock = threading.Lock()
        # trace_id -> (reason, trace); insertion-ordered for eviction.
        self._retained: Dict[str, Tuple[str, QueryTrace]] = {}
        self._recent: deque = deque(maxlen=self.policy.recent_capacity)
        self._recent_by_id: Dict[str, QueryTrace] = {}

    def offer(
        self,
        trace_id: str,
        trace: QueryTrace,
        degraded: bool = False,
        error: bool = False,
    ) -> Optional[str]:
        """Offer a finished trace; returns the retention reason or None."""
        reason = self.policy.reason(trace, degraded=degraded, error=error)
        with self._lock:
            if reason is not None:
                self._retain(trace_id, reason, trace)
            else:
                if len(self._recent) == self._recent.maxlen:
                    evicted = self._recent[0]
                    self._recent_by_id.pop(evicted, None)
                self._recent.append(trace_id)
                self._recent_by_id[trace_id] = trace
        return reason

    def _retain(self, trace_id: str, reason: str, trace: QueryTrace) -> None:
        self._retained[trace_id] = (reason, trace)
        while len(self._retained) > self.policy.capacity:
            oldest = next(iter(self._retained))
            del self._retained[oldest]

    def promote(self, trace_id: str, reason: str) -> bool:
        """Pin a trace as interesting after the fact (auditor verdicts).

        Returns False when the trace already aged out of both the
        retained set and the provisional ring.
        """
        with self._lock:
            existing = self._retained.get(trace_id)
            if existing is not None:
                self._retained[trace_id] = (reason, existing[1])
                return True
            trace = self._recent_by_id.pop(trace_id, None)
            if trace is None:
                return False
            try:
                self._recent.remove(trace_id)
            except ValueError:  # pragma: no cover - ring raced the pop
                pass
            self._retain(trace_id, reason, trace)
            return True

    def get(self, trace_id: str) -> Optional[QueryTrace]:
        """A trace by id, from the retained set or the provisional ring."""
        with self._lock:
            entry = self._retained.get(trace_id)
            if entry is not None:
                return entry[1]
            return self._recent_by_id.get(trace_id)

    def reason(self, trace_id: str) -> Optional[str]:
        with self._lock:
            entry = self._retained.get(trace_id)
            return entry[0] if entry is not None else None

    def retained(self) -> List[Tuple[str, str, QueryTrace]]:
        """(trace_id, reason, trace) for every retained trace, oldest first."""
        with self._lock:
            return [
                (trace_id, reason, trace)
                for trace_id, (reason, trace) in self._retained.items()
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._retained)

    def clear(self) -> None:
        with self._lock:
            self._retained.clear()
            self._recent.clear()
            self._recent_by_id.clear()
