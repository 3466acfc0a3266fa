"""Spans around calls into ldslab layers, recorded from outside the program.

The tracer replaces a module attribute (for example
``ldslab.learn.jennrich_decompose``) with a timing wrapper, so every call the
program makes through that attribute is recorded under a layer name.  Wrapping
happens at the attribute the *caller* looks up, which makes spans nest under
the real call: the self time of a span is its duration minus the time of the
wrapped calls made inside it.

Two kinds of records are kept in memory until the run ends:

- spans, one per call (name, start, end, parent), for coarse calls;
- aggregates, only a call count, total time and self time per name, for calls
  made once per trajectory, where a span per call would cost more than the call.

Warnings raised while the tracer is open are counted by category.  Every
wrapped attribute is restored when the tracer closes.
"""
from __future__ import annotations

import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    self_s: float


class Tracer:
    """Context manager: wrap attributes inside it, restored on exit."""

    def __init__(self):
        self.spans: list = []
        # name -> [calls, total seconds, self seconds]
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])
        self.warning_counts = defaultdict(int)
        self._stack = []  # open frames: [seconds spent in children, span index or -1]
        self._patches = []  # (owner, attribute, original)
        self._warn_ctx = None
        self._recorded = []

    def wrap(self, owner, attr: str, name: str, aggregate: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records ``name``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            frame = self._open(name, aggregate)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(frame, start, name, aggregate)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span."""
        frame = self._open(name, False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, name, False)

    def _open(self, name, aggregate):
        frame = [0.0, -1]
        if not aggregate:
            parent = self._stack[-1][1] if self._stack else -1
            frame[1] = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, 0.0))
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, name, aggregate):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        if aggregate:
            row = self.aggregates[name]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[0]
        else:
            span = self.spans[frame[1]]
            span.start, span.end, span.self_s = start, end, duration - frame[0]

    def __enter__(self):
        self._warn_ctx = warnings.catch_warnings(record=True)
        self._recorded = self._warn_ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for rec in self._recorded:
            self.warning_counts[rec.category.__name__] += 1
        self._warn_ctx.__exit__(None, None, None)
        return False

    def totals(self) -> dict:
        """name -> {"calls", "s", "self_s"} over spans and aggregates.

        None of the wrapped functions recurse, so no span of a name nests
        inside another span of the same name and "s" counts no time twice.
        """
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["s"] += span.end - span.start
            row["self_s"] += span.self_s
        for name, (calls, total, self_s) in self.aggregates.items():
            row = out[name]
            row["calls"] += calls
            row["s"] += total
            row["self_s"] += self_s
        return dict(out)

    def self_time_sum(self) -> float:
        """Sum of the self times of every span and aggregate."""
        return sum(s.self_s for s in self.spans) + sum(
            row[2] for row in self.aggregates.values()
        )
