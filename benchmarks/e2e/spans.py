"""The harness's own span recorder.

Spans are recorded from the benchmark's files, around the calls into each
layer; the program's own tracer stays off.  They are kept in memory and
written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Name, start, end, parent and op id of every span, in memory."""

    def __init__(self) -> None:
        self._spans: List[dict] = []
        self._open = threading.local()  # per-thread stack of open span ids
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op_id: Optional[str] = None, **attrs) -> Iterator[dict]:
        """Time the body; nests under the thread's innermost open span.

        A child inherits its parent's ``op_id``, so the spans of one op
        share an identifier.  The yielded record takes late attributes.
        """
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "op_id": op_id if op_id is not None else (parent or {}).get("op_id"),
            "parent": parent["id"] if parent else None,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self._spans)
            self._spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def spans(self, name: str) -> List[dict]:
        return [record for record in self._spans if record["name"] == name]

    def counts(self) -> Dict[str, int]:
        """How many spans each name has."""
        by_name: Dict[str, int] = {}
        for record in self._spans:
            by_name[record["name"]] = by_name.get(record["name"], 0) + 1
        return by_name

    def median_ms(self, name: str) -> float:
        """A layer's number: its span median (0 when it never ran)."""
        samples = [(s["end"] - s["start"]) * 1e3 for s in self.spans(name)]
        return statistics.median(samples) if samples else 0.0

    def write(self, path) -> int:
        with open(path, "w") as out:
            for record in self._spans:
                out.write(json.dumps(record) + "\n")
        return len(self._spans)
