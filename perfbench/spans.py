"""In-memory spans recorded around calls into other modules.

A span is (name, start, end, parent). Spans nest by call order in the one
thread the benchmark runs, so the parent of a span is the span open when
it started. Nothing is written while recording; the benchmark reads the
spans when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float = 0.0, parent: int | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


class Tracer:
    """Records spans and counters; installs and removes call wrappers.

    ``enabled`` switches recording without removing the wrappers, so one
    process can time the same loop with tracing off and on.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        s = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, label, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``label`` is the span name, or a function of the call's arguments
        returning it. ``before(args, kwargs)`` runs first and its result is
        handed to ``after(tracer, result, args, kwargs, token)``, which
        adds counters once the call has returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            name = label(*args, **kwargs) if callable(label) else label
            token = before(args, kwargs) if before else None
            with self.span(name):
                result = original(*args, **kwargs)
            if after:
                after(self, result, args, kwargs, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def busy(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total duration, total self time and call count."""
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for s, t in zip(self.spans, self_times(self.spans)):
            total[s.name] += s.duration
            own[s.name] += t
            calls[s.name] += 1
        return total, own, calls

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]
