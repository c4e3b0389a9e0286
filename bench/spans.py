"""In-memory span recording around the benchmark's calls into conitop.

A span is one timed call: name, layer, start, end, parent span, op id, and a
probe flag.  Each op gets a root span in layer ``bench``; every public call
the op makes is a child span in the layer (module) it calls into.

Some public calls reach another layer inside the program (``projectivize``
calls ``signature``).  The traced run times the inner public call again on
the same input after the op has returned, as a *probe* span whose parent is
the outer call's span.  Probes therefore never lengthen an op's wall time,
are left out of coverage, and only move time between layers in the self-time
sum: a probe's duration is subtracted from its parent's self time and charged
to the probed layer.  A probe charges one inner call, so where the outer call
makes the inner call more than once the inner layer's share is a lower bound.

The untraced run uses :class:`NullTracer`, which calls straight through.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

ROOT_LAYER = "bench"


@dataclass(frozen=True)
class Span:
    sid: int
    op: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float
    probe: bool = False
    note: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls straight through; records nothing."""

    last = None

    def call(self, name, layer, fn, *args, note=""):
        return fn(*args)

    def probe(self, parent, name, layer, fn, *args, note=""):
        return None

    def defer(self, fn, *args):
        pass

    def run_op(self, fn):
        """Run one op; returns (output, wall seconds)."""
        t0 = perf_counter()
        out = fn(self)
        return out, perf_counter() - t0


class Tracer:
    """Records spans in memory; :func:`dump` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.last: int | None = None
        self._next = 0
        self._ops = 0
        self._op: int | None = None
        self._parent: int | None = None
        self._pending: list = []

    def _sid(self) -> int:
        self._next += 1
        return self._next

    def call(self, name, layer, fn, *args, note=""):
        """Time ``fn(*args)`` as a child of the current span."""
        sid = self._sid()
        parent = self._parent
        self._parent = sid
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._parent = parent
            self.spans.append(Span(sid, self._op, name, layer, parent, start, end, False, note))
            self.last = sid

    def probe(self, parent, name, layer, fn, *args, note=""):
        """Queue a probe of ``fn(*args)`` under span ``parent``; returns its span id.

        The id is allocated now so that probes of probes can name their parent
        before it runs.
        """
        sid = self._sid()
        self._pending.append(lambda: self._run_probe(sid, parent, name, layer, fn, args, note))
        return sid

    def defer(self, fn, *args):
        """Run ``fn(*args)`` untimed after the op, e.g. to prepare probe inputs."""
        self._pending.append(lambda: fn(*args))

    def _run_probe(self, sid, parent, name, layer, fn, args, note):
        start = perf_counter()
        fn(*args)
        end = perf_counter()
        self.spans.append(Span(sid, self._op, name, layer, parent, start, end, True, note))

    def run_op(self, fn):
        """Run one op under a root span, then its queued probes.

        Returns (output, wall seconds of the op alone).
        """
        self._ops += 1
        self._op = self._ops
        sid = self._sid()
        self._parent = sid
        try:
            start = perf_counter()
            try:
                out = fn(self)
            finally:
                end = perf_counter()
                self._parent = None
                self.spans.append(Span(sid, self._op, "op", ROOT_LAYER, None, start, end))
            while self._pending:
                self._pending.pop(0)()
        finally:
            self._pending.clear()
            self._op = None
        return out, end - start


def dump(spans, path) -> None:
    """Write spans as a JSON list of objects."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([asdict(s) for s in spans], handle)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration, minus the part of its interval that
    its non-probe children cover, minus the durations of its probe children.
    Probes re-time inner calls outside the op, so on a noisy machine they can
    add up to more than the time their parent has left; they are then scaled
    down to fit it, and the parent keeps no self time.  Summed over the spans
    of one op, self times equal the op's wall time: probes move time between
    layers and add none.
    """
    kids = _children(spans)
    out: dict[str, float] = defaultdict(float)

    def visit(s: Span, scale: float) -> None:
        inner = [
            (max(k.start, s.start), min(k.end, s.end))
            for k in kids.get(s.sid, ())
            if not k.probe and k.end > s.start and k.start < s.end
        ]
        left = scale * s.duration - _covered(inner)
        probes = [k for k in kids.get(s.sid, ()) if k.probe]
        probed = scale * sum(k.duration for k in probes)
        fit = max(0.0, min(1.0, left / probed)) if probed > 0 else 1.0
        out[s.layer] += left - fit * probed
        for k in probes:
            visit(k, scale * fit)

    for s in spans:
        if not s.probe:
            visit(s, 1.0)
    return dict(out)


def coverage(spans) -> tuple[float, float]:
    """(seconds covered by layer spans, seconds of op wall time) over all ops."""
    kids = _children(spans)
    covered = wall = 0.0
    for s in spans:
        if s.layer != ROOT_LAYER or s.parent is not None:
            continue
        wall += s.duration
        covered += _covered(
            [
                (max(k.start, s.start), min(k.end, s.end))
                for k in kids.get(s.sid, ())
                if not k.probe
            ]
        )
    return covered, wall


def durations(spans, name: str, note: str | None = None) -> list[float]:
    """Durations in seconds of every span with this name (and note, if given)."""
    return [
        s.duration
        for s in spans
        if s.name == name and (note is None or s.note == note)
    ]
