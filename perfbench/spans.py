"""Spans and counts for the traced benchmark run.

A `Tracer` replaces functions at the names their callers look up with
wrappers that record one span per call (name, start, end, parent span) and,
through an optional callback, counts taken from the call's arguments and
result. `uninstall` puts every original attribute back. Spans are kept in
memory; `write` saves them when the run ends.

Self time of a span is its duration minus the part of its interval that its
child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[tuple[int, str, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = next(self._ids)
        self._stack.append((sid, name, self.clock()))
        return sid

    def close(self, sid: int) -> None:
        end = self.clock()
        top, name, start = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(sid, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of a `with` statement."""
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def root(self) -> int | None:
        """Id of the outermost open span."""
        return self._stack[0][0] if self._stack else None

    # ----- wrappers -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None = None, on_result=None):
        """Replace `owner.attr` by a wrapper that records a span `name` (if
        given) and calls `on_result(tracer, args, kwargs, result)`.

        A name the program no longer defines is skipped and listed in
        `missing`, so the metrics it feeds read zero instead of failing."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self.open(name) if name else None
            try:
                result = original(*args, **kwargs)
            finally:
                if sid is not None:
                    self.close(sid)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- results --------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, span count).

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice."""
        selfs = self_times(self.spans)
        by_id = {s.id: s for s in self.spans}
        out: dict[str, list] = {}
        for s in self.spans:
            acc = out.setdefault(s.name, [0.0, 0.0, 0])
            acc[1] += selfs[s.id]
            acc[2] += 1
            if s.name not in ancestor_names(s, by_id):
                acc[0] += s.duration
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path: Path, extra: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times(self.spans)
        doc = dict(extra or {})
        doc["missing_wrappers"] = self.missing
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = [
            dict(asdict(s), self=selfs[s.id])
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def ancestor_names(span: Span, by_id: dict[int, Span]) -> set[str]:
    """Names of every span enclosing `span`."""
    names = set()
    pid = span.parent
    while pid is not None:
        parent = by_id[pid]
        names.add(parent.name)
        pid = parent.parent
    return names


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }
