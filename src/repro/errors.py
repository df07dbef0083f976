"""Typed error taxonomy for the Aqua middleware.

Every failure mode the middleware can detect maps to a distinct
:class:`AquaError` subclass, so callers (and the CLI shell) can react to
*what* went wrong instead of pattern-matching message strings or -- worse --
catching ``KeyError`` and masking real bugs.  The taxonomy lives at the
package root so low-level layers (e.g. :mod:`repro.rewrite`) can raise typed
errors without importing the :mod:`repro.aqua` package and creating an
import cycle.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "AquaError",
    "TableNotRegisteredError",
    "SynopsisMissingError",
    "StaleSynopsisError",
    "SynopsisCorruptError",
    "GuardViolationError",
    "QueryTooDeepError",
    "StreamError",
    "TransientError",
    "ServeError",
    "OverloadError",
    "RateLimitExceeded",
    "DeadlineExceeded",
    "CircuitOpenError",
]


class AquaError(RuntimeError):
    """Base class for all Aqua middleware failures."""


class TableNotRegisteredError(AquaError):
    """A query or admin call referenced a table Aqua does not know about."""


class SynopsisMissingError(AquaError):
    """The table is registered but no synopsis has been built for it."""


class StaleSynopsisError(AquaError):
    """The synopsis has drifted past the guard policy's staleness limit."""


class SynopsisCorruptError(AquaError):
    """Synopsis state failed validation (bad scale factors, indices, ...)."""


class GuardViolationError(AquaError):
    """An answer failed the guard policy and every fallback is disabled."""


class QueryTooDeepError(AquaError):
    """A predicate or expression tree nests deeper than the recursive
    walkers (evaluation, rendering, canonicalization, optimizer rules) can
    follow; the interpreter's ``RecursionError`` re-raised as a typed one.
    """


class StreamError(AquaError):
    """A query cannot be answered progressively by ``sql_stream``.

    Raised for non-streamable shapes (nested FROM subqueries, no
    aggregates, joins) and invalid streaming knobs (``chunk_rows < 1``,
    non-positive ``until_rel_error``) -- always before the first chunk,
    so a caller never sees a half-emitted stream die on a bad argument.
    """


class TransientError(AquaError):
    """A fault expected to clear on retry (torn read, racing refresh, ...).

    The serving layer's retry policy treats this class (and the
    deterministic fault injector's error bursts, which raise it) as
    retryable; everything else fails fast.
    """


class ServeError(AquaError):
    """Base class for failures raised by the concurrent serving layer."""


class OverloadError(ServeError):
    """Admission control rejected the query: the queue is full.

    The 429 of the taxonomy -- the request was never executed, so the
    caller may safely retry after ``retry_after_seconds``.
    """

    def __init__(self, message: str, retry_after_seconds: float = 0.05):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class RateLimitExceeded(ServeError):
    """The tenant's token bucket is empty; the query was not admitted."""

    def __init__(self, message: str, tenant: str = "", retry_after_seconds: float = 0.05):
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_seconds = retry_after_seconds


class DeadlineExceeded(ServeError):
    """A per-query deadline expired; execution aborted cooperatively.

    ``stage`` names the pipeline stage or plan operator the query died in
    (``"queue"``, ``"validate"``, ``"op_groupby"``, ``"parallel_scan"``,
    ``"scan"``, ...), so callers can tell a query that never started from
    one killed mid-scan.
    """

    def __init__(
        self,
        message: str,
        stage: Optional[str] = None,
        elapsed_seconds: Optional[float] = None,
    ):
        super().__init__(message)
        self.stage = stage
        self.elapsed_seconds = elapsed_seconds


class CircuitOpenError(ServeError):
    """The table's circuit breaker is open and degradation is disabled."""
