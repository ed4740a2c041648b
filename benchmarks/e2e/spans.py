"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent, rid)``: the layer it times, its
interval on one ``time.perf_counter`` clock, the span that caused it and
the request it belongs to.  The benchmark opens spans around its own calls
into each layer's public functions (nothing inside ``src/`` is touched),
keeps them in memory, and writes them out once at the end as a Chrome
trace plus a self-time summary.

Self time is a span's duration minus the part of its interval covered by
its children.  Children may overlap (a serve request's client span holds
an exec span reconstructed from the reply), so the covered part is the
length of the *union* of the child intervals, clipped to the parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanRecorder", "covered", "self_times"]


@dataclass
class Span:
    """One timed interval of one layer."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    rid: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> self time (duration minus the union of its children)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


class SpanRecorder:
    """Collects spans in memory; nests :meth:`span` blocks on a stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, rid: Optional[int] = None,
            **args: Any) -> int:
        """Record a span whose interval is already known; returns its id."""
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, rid, args))
        return sid

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None,
             **args: Any) -> Iterator[Span]:
        """Time the block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.perf_counter(), 0.0, parent, rid, **args)
        rec = self.spans[sid]
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    # -- summaries ------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds."""
        own = self_times(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(
                s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own[s.sid]
        return out

    def format_summary(self, wall_s: float) -> str:
        """The self-time table, heaviest layer first, as shares of
        ``wall_s`` (the end-to-end time the spans were taken in)."""
        rows = sorted(self.summary().items(), key=lambda kv: -kv[1]["self_s"])
        lines = [f"{'span':<28} {'count':>7} {'self ms':>10} "
                 f"{'total ms':>10} {'self %':>7}"]
        for name, r in rows:
            lines.append(
                f"{name:<28} {r['count']:>7} {r['self_s'] * 1e3:>10.1f} "
                f"{r['total_s'] * 1e3:>10.1f} "
                f"{100.0 * r['self_s'] / wall_s if wall_s else 0.0:>6.1f}%"
            )
        return "\n".join(lines)

    def write(self, trace_path: str, summary_path: str,
              wall_s: float) -> None:
        """Write the Chrome trace and the JSON self-time summary."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": 0 if s.rid is None else s.rid,
                "args": dict(s.args, sid=s.sid, parent=s.parent, rid=s.rid),
            }
            for s in self.spans
        ]
        with open(trace_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        with open(summary_path, "w") as fh:
            json.dump({"wall_s": wall_s, "spans": self.summary()}, fh,
                      indent=1, sort_keys=True)
