"""In-memory span recorder for the traced benchmark run.

The maler package is instrumented from outside: module functions and class
methods are swapped for wrappers that record one span per call (name, start,
end, parent span, optional counts) and are put back afterwards. Spans stay in
memory and are folded into per-layer totals, self times and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union


@dataclass
class Span:
    """One timed call: perf_counter_ns bounds and the index of its parent."""

    name: str
    start: int
    end: int = 0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Recorder:
    """Keeps every span of a run in call order; parents precede children."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)


Namer = Union[str, Callable[..., str]]
PACKAGE = "maler"


def wrap(rec: Recorder, fn, name: Namer, count: Optional[Callable] = None):
    """Return fn recording a span per call.

    name is the span name, or a function of the call's arguments giving it.
    count(result, *args, **kwargs) returns counts stored on the span; it runs
    after the span closes, so its cost is not timed.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        idx = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            rec.spans[idx].counts = count(result, *args, **kwargs)
        return result

    return traced


@contextlib.contextmanager
def instrumented(rec: Recorder, targets):
    """Swap each (owner, attr, name, count) target for a recording wrapper.

    For a module function, every module of the package that bound the same
    function object by name (``from .meta import ...``) is patched too, so
    calls through either name are recorded. Everything is restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            traced = wrap(rec, original, name, count)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    mod for key, mod in sorted(sys.modules.items())
                    if mod is not None and mod is not owner
                    and (key == PACKAGE or key.startswith(PACKAGE + "."))
                    and any(v is original for v in vars(mod).values())
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, original))
                        setattr(holder, key, traced)
        yield rec
    finally:
        for holder, key, original in reversed(saved):
            setattr(holder, key, original)


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans) -> list:
    """Per span: its duration minus the part its direct children cover."""
    children: list = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration_ns - covered_ns(s.start, s.end, kids) for s, kids in zip(spans, children)]


def aggregate(spans, scopes) -> dict:
    """Fold spans into {(scope, name): {"ns", "self_ns", "calls", counts...}}.

    A span's scope is the name of its innermost ancestor listed in scopes, or
    "" when it has none; a scope span itself belongs to its parent's scope.
    """
    selfs = self_times_ns(spans)
    inherited = [""] * len(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        scope = ""
        if s.parent >= 0:
            p = spans[s.parent]
            scope = p.name if p.name in scopes else inherited[s.parent]
        inherited[i] = scope
        row = out.setdefault((scope, s.name), {"ns": 0, "self_ns": 0, "calls": 0})
        row["ns"] += s.duration_ns
        row["self_ns"] += selfs[i]
        row["calls"] += 1
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out
