"""In-memory spans around nomadlite's public functions, and the statistics
the benchmark reports from them.

A ``Tracer`` replaces a function at the name its caller looks up (for
example ``nomadlite.degrade.resample``, which ``synth_dataset`` reads from
its own module globals) with a wrapper that records one span per call:
name, start, end, parent span and optional attributes. No source file of
the package changes, and ``restore`` puts every original back. The
benchmark is single-threaded, so one parent stack serves every span.
"""

import functools
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=0.0, parent=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent   # index of the enclosing span, or None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).

        ``attrs(args, kwargs, result)``, when given, returns the span's
        attributes; it runs after the span has ended, so its cost is not
        part of the span."""
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self, name: str) -> list[float]:
        kids = self.children()
        return [self_time(s, kids.get(i, ())) for i, s in enumerate(self.spans) if s.name == name]

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    covered = 0.0
    cursor = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo = max(c.start, cursor)
        hi = min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(values_s) -> dict:
    """Median and 90th percentile in ms, with the sample count. The p90 is
    flagged when fewer than ten samples lie beyond it."""
    n = len(values_s)
    return {
        "ms_p50": percentile(values_s, 50) * 1e3,
        "ms_p90": percentile(values_s, 90) * 1e3,
        "n": n,
        "p90_has_10_beyond": n * 0.1 >= 10,
    }
