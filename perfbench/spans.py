"""Spans recorded from outside the library, around each call a pass makes.

A span is (id, name, start, end, parent, pass id).  Each pass opens one
root span named "pass"; every library call inside it is a child span.  The
spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: Optional[Span] = None

    def begin_pass(self, pass_id: int) -> None:
        self._open = Span(len(self.spans), "pass", time.perf_counter(), 0.0, None, pass_id)
        self.spans.append(self._open)

    def end_pass(self) -> None:
        self._open.end = time.perf_counter()
        self._open = None

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(len(self.spans), name, start, time.perf_counter(),
                                   parent.id, parent.pass_id))

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def untraced(name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class BestTimes:
    """The fastest wall and CPU time, over the passes of a run, of each
    library call of a pass (keyed by its position in the pass) and of the
    glue between the calls.  No span is kept: two clock reads per call.

    Load from other tenants of a shared host comes in phases of seconds to
    minutes and only ever slows a call down.  A call's fastest time over
    the run is therefore steadier from run to run than the median pass,
    unless a slow phase outlasts the run (perfbench/README.md has the
    figures), and their sum is the pass as the run saw it at its fastest."""

    def __init__(self) -> None:
        self.calls: dict[tuple[int, str], list[float]] = {}
        self.glue: list[float] = [float("inf"), float("inf")]

    def begin_pass(self) -> None:
        self._position = 0
        self._in_calls = [0.0, 0.0]
        self._start = (time.perf_counter(), time.process_time())

    def end_pass(self) -> None:
        wall = time.perf_counter() - self._start[0] - self._in_calls[0]
        cpu = time.process_time() - self._start[1] - self._in_calls[1]
        self.glue = [min(self.glue[0], wall), min(self.glue[1], cpu)]

    def call(self, name: str, fn, *args, **kwargs):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            self._in_calls[0] += wall
            self._in_calls[1] += cpu
            best = self.calls.setdefault((self._position, name), [wall, cpu])
            best[0], best[1] = min(best[0], wall), min(best[1], cpu)
            self._position += 1

    def pass_seconds(self) -> tuple[float, float]:
        """(wall, cpu) of a pass with every call and the glue at its fastest."""
        return (sum(b[0] for b in self.calls.values()) + self.glue[0],
                sum(b[1] for b in self.calls.values()) + self.glue[1])


def self_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per pass: summed self time per span name.  A span's self time is its
    duration minus the time its children cover; the "pass" entry is then
    the part of the pass no library call accounts for."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        per = out.setdefault(s.pass_id, {})
        per[s.name] = per.get(s.name, 0.0) + (s.end - s.start) - child_time.get(s.id, 0.0)
    return out


def call_counts(spans: list[Span], pass_id: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        if s.pass_id == pass_id and s.parent is not None:
            counts[s.name] = counts.get(s.name, 0) + 1
    return counts


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Medians over the traced passes of each function's and each module's
    self time, plus the untimed remainder and the traced pass wall time."""
    per_pass = self_times(spans)
    walls = {s.pass_id: s.end - s.start for s in spans if s.parent is None}
    rows = []
    for pass_id, times in per_pass.items():
        row = {"untimed.s": times.pop("pass", 0.0), "traced.wall_s": walls[pass_id]}
        for name, t in times.items():
            row[f"{name}.s"] = t
            module = name.split(".", 1)[0] + ".s"
            row[module] = row.get(module, 0.0) + t
        rows.append(row)
    keys = sorted({k for row in rows for k in row})
    return {k: median(row.get(k, 0.0) for row in rows) for k in keys}


def well_formed(spans: list[Span]) -> list[str]:
    """Problems with the span tree; empty when every child lies inside its
    parent pass, children of one pass do not overlap, and ids are dense."""
    problems = []
    by_id = {s.id: s for s in spans}
    if sorted(by_id) != list(range(len(spans))):
        problems.append("span ids are not 0..n-1")
    last_end: dict[int, float] = {}
    for s in sorted(spans, key=lambda s: (s.start, s.id)):
        if s.end < s.start:
            problems.append(f"span {s.id} ends before it starts")
        if s.parent is None:
            if s.name != "pass":
                problems.append(f"root span {s.id} is not a pass")
            continue
        p = by_id.get(s.parent)
        if p is None or p.parent is not None:
            problems.append(f"span {s.id} has no pass as parent")
            continue
        if p.pass_id != s.pass_id:
            problems.append(f"span {s.id} and its parent disagree on the pass id")
        if not (p.start <= s.start and s.end <= p.end):
            problems.append(f"span {s.id} lies outside its pass")
        if s.start < last_end.get(p.id, p.start):
            problems.append(f"span {s.id} overlaps a sibling")
        last_end[p.id] = s.end
    return problems
