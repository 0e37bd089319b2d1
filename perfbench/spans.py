"""In-memory spans for the traced run.

A span records its name, start, end, parent span and operation id.
Spans stay in a list while the run lasts and are written out once, as
JSON lines, when it ends.  All times come from ``time.perf_counter``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: A traced operation's child spans must cover its duration to within
#: this share, plus COVER_SLACK_S.  The children are the layer calls the
#: operation itself makes (wrapped, see ``layers.Instrument``), so the
#: gap is the operation's own code between those calls and the spans'
#: own cost.  Worst gaps seen in traced rpc-schedule replays on a
#: 2-core x86 box: 0.55 ms (3%) of a ``/schedule`` dispatch, 0.28 ms
#: (25%) of a ~1-ms ``schedule_graph``.
COVER_TOLERANCE = 0.10
COVER_SLACK_S = 0.0005


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, op: int, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span measured by the caller; returns its id."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(Span(span_id, parent, op, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """Time the block as a child of the thread's innermost open span;
        *op* defaults to that span's operation id (0 at top level)."""
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (None, 0)
        op = parent_op if op is None else op
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, op, name, start, end))

    def self_times(self) -> Dict[int, float]:
        """span id -> duration minus the durations of its children."""
        self_time = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                self_time[s.parent] -= s.duration
        return self_time

    def coverage(self, root_name: str) -> List[Tuple[Span, float]]:
        """Each span named *root_name*, with the share of its duration
        its children cover (0 for a span without children)."""
        self_time = self.self_times()
        return [(s, 1 - self_time[s.span_id] / s.duration)
                for s in self.spans
                if s.name == root_name and s.duration > 0]

    @staticmethod
    def covered(span: Span, share: float) -> bool:
        """Whether children covering *share* of *span* are within the
        stated tolerance."""
        gap = (1 - share) * span.duration
        return gap <= COVER_TOLERANCE * span.duration + COVER_SLACK_S

    def dump(self, path: Path) -> None:
        """Write every span, with its self time, as JSON lines."""
        self_time = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(dict(asdict(s),
                                          self=self_time[s.span_id])) + "\n")
