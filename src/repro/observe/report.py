"""Run reports: one schema-versioned JSON artifact per CLI invocation.

Every ``python -m repro`` command can emit a :class:`RunReport` (via
``--report out.json``): a single self-describing JSON document that
captures *what ran and how fast* —

* environment + rulebase fingerprints (so two reports are comparable
  only when they measured the same thing),
* per-phase wall clock (the root spans of a phase
  :class:`~repro.observe.tracer.Tracer`),
* the full :class:`~repro.observe.metrics.MetricsRegistry` snapshot,
* a span summary with the critical path (:func:`span_summary`),
* result-cache hit/miss/store counts.

Reports from different runs diff structurally:
:func:`diff_reports` pairs up every comparable scalar (phase seconds,
counters, histogram means), applies a direction heuristic (``seconds`` /
``cycles`` / ``misses`` are better lower; ``speedup`` / ``hits`` better
higher), and flags relative changes beyond a threshold.  ``python -m
repro report diff A B --threshold 0.1`` exits non-zero when any tracked
quantity regressed — a lightweight perf ratchet for CI.

The schema is versioned (:data:`SCHEMA_VERSION`); consumers should
reject majors they don't know.  Schema ``repro-report/1``::

    {
      "schema_version": "repro-report/1",
      "command": "coverage",            # CLI subcommand (or harness name)
      "argv": [...],                    # the invocation, verbatim
      "created_unix": 1700000000.0,
      "env": {"python": ..., "platform": ..., "machine": ...},
      "fingerprints": {"repro_version": ..., "rulebase": {target: sha}},
      "phases": [{"name": ..., "seconds": ...}, ...],
      "metrics": {"counters": [...], "histograms": [...]},
      "spans": {"span_count": ..., "by_name": {...},
                "critical_path": [...], "critical_path_us": ...},
      "cache": {"hits": ..., "misses": ..., "stores": ...,
                ...},                   # ResultCache.session_stats()
      "extra": {...}                    # command-specific payload
    }
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DiffEntry",
    "RunReport",
    "SCHEMA_VERSION",
    "diff_reports",
    "environment_info",
    "fingerprint_info",
    "format_diff",
    "load_report",
    "span_summary",
]

#: current report schema; bump the major on breaking layout changes
SCHEMA_VERSION = "repro-report/1"

#: name *suffixes* whose values are better when lower
_LOWER_SUFFIXES = ("seconds", "_s", "_us", "cycles")
#: name *substrings* whose values are better when lower
_LOWER_SUBSTRINGS = ("miss", "fail", "error")
#: name substrings whose values are better when higher
_HIGHER_MARKERS = ("speedup", "hit", "coverage", "verified")


def environment_info() -> Dict[str, Any]:
    """The environment facts that make two reports comparable (or not)."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
        "numpy": numpy.__version__,
    }


def fingerprint_info() -> Dict[str, Any]:
    """Repro version plus the effective rulebase fingerprint per target.

    A report diff across different fingerprints compares apples to
    oranges — the diff output calls that out rather than refusing.
    """
    from ..fabric.fingerprint import (
        pipeline_rules_fingerprint,
        repro_version,
    )
    from ..targets import ALL_TARGETS

    rulebase = {"lift-only": pipeline_rules_fingerprint(None)}
    for name in sorted(ALL_TARGETS):
        rulebase[name] = pipeline_rules_fingerprint(name)
    return {"repro_version": repro_version(), "rulebase": rulebase}


def span_summary(tracer) -> Dict[str, Any]:
    """Aggregate a tracer's spans: per-name totals plus the critical path.

    Works on a merged cross-process tracer: spans are grouped per
    ``pid``, each pid's nesting tree is rebuilt from the recorded
    ``depth`` sequence, and the critical path is the walk from the
    single longest root span down through each level's longest child.
    Returns an empty summary for ``None`` / disabled / empty tracers.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return {
            "span_count": 0,
            "by_name": {},
            "pids": [],
            "critical_path": [],
            "critical_path_us": 0.0,
        }

    by_name: Dict[str, Dict[str, float]] = {}
    by_pid: Dict[int, List[Any]] = {}
    for sp in tracer.spans:
        pid = sp.pid or tracer.pid
        by_pid.setdefault(pid, []).append(sp)
        slot = by_name.setdefault(
            sp.name, {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        dur = sp.duration_us or 0.0
        slot["count"] += 1
        slot["total_us"] += dur
        slot["max_us"] = max(slot["max_us"], dur)

    # Rebuild each pid's nesting tree from the depth sequence: spans are
    # recorded in open order, so a span's parent is the nearest earlier
    # span with a smaller depth still on the stack.
    children: Dict[int, List[Any]] = {}
    roots: List[Any] = []
    for spans in by_pid.values():
        stack: List[Any] = []
        for sp in spans:
            while stack and stack[-1].depth >= sp.depth:
                stack.pop()
            if stack:
                children.setdefault(id(stack[-1]), []).append(sp)
            else:
                roots.append(sp)
            stack.append(sp)

    critical: List[Dict[str, Any]] = []
    critical_us = 0.0
    if roots:
        node = max(roots, key=lambda s: s.duration_us or 0.0)
        critical_us = node.duration_us or 0.0
        while node is not None:
            critical.append(
                {
                    "name": node.name,
                    "pid": node.pid or tracer.pid,
                    "duration_us": round(node.duration_us or 0.0, 3),
                }
            )
            kids = children.get(id(node))
            node = (
                max(kids, key=lambda s: s.duration_us or 0.0)
                if kids
                else None
            )

    return {
        "span_count": len(tracer.spans),
        "by_name": {
            name: {
                "count": int(v["count"]),
                "total_us": round(v["total_us"], 3),
                "max_us": round(v["max_us"], 3),
            }
            for name, v in sorted(by_name.items())
        },
        "pids": sorted(by_pid),
        "critical_path": critical,
        "critical_path_us": round(critical_us, 3),
    }


@dataclass
class RunReport:
    """One run's complete observability artifact (see module docstring)."""

    command: str
    argv: List[str] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION
    created_unix: float = 0.0
    env: Dict[str, Any] = field(default_factory=dict)
    fingerprints: Dict[str, Any] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        command: str,
        argv: Optional[List[str]] = None,
        phases=None,
        metrics=None,
        tracer=None,
        cache=None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Assemble a report from the run's live observability objects.

        ``phases`` is the run's phase :class:`~repro.observe.Tracer`:
        each closed root span becomes one ``{"name", "seconds"}`` entry.
        ``metrics`` is a :class:`~repro.observe.MetricsRegistry`,
        ``tracer`` the :class:`~repro.observe.Tracer` the span summary
        is built from, ``cache`` a :class:`~repro.fabric.ResultCache`;
        all are optional — absent legs produce empty sections, never
        errors.
        """
        cache_stats = cache.session_stats() if cache is not None else {}
        return cls(
            command=command,
            argv=list(argv) if argv is not None else list(sys.argv[1:]),
            created_unix=time.time(),
            env=environment_info(),
            fingerprints=fingerprint_info(),
            phases=[
                {"name": sp.name, "seconds": sp.duration_us / 1e6}
                for sp in (phases.spans if phases is not None else ())
                if sp.depth == 0 and sp.closed
            ],
            metrics=metrics.to_dict() if metrics is not None else {},
            spans=span_summary(tracer),
            cache=cache_stats,
            extra=dict(extra) if extra else {},
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document, schema ``repro-report/1``."""
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "argv": self.argv,
            "created_unix": self.created_unix,
            "env": self.env,
            "fingerprints": self.fingerprints,
            "phases": self.phases,
            "metrics": self.metrics,
            "spans": self.spans,
            "cache": self.cache,
            "extra": self.extra,
        }

    def write(self, path: str) -> None:
        """Serialize :meth:`to_dict` to ``path`` (indented, sorted)."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load a report JSON file, checking the schema major.

    Raises ``ValueError`` for documents that are not run reports or
    whose schema major is unknown.
    """
    with open(path) as fh:
        doc = json.load(fh)
    sv = doc.get("schema_version") if isinstance(doc, dict) else None
    if not isinstance(sv, str) or not sv.startswith("repro-report/"):
        raise ValueError(f"{path}: not a repro run report (schema={sv!r})")
    if sv != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported report schema {sv!r} "
            f"(this build reads {SCHEMA_VERSION!r})"
        )
    return doc


def _direction(name: str) -> Optional[str]:
    """Heuristic comparison direction for a metric name.

    ``"lower"`` — regressions are increases (seconds, cycles, misses);
    ``"higher"`` — regressions are decreases (speedups, hit counts);
    ``None`` — informational only, never flagged.  Lower-better markers
    win ties (``cache_hit_misses`` counts as lower-better).
    """
    low = name.lower()
    if low.endswith(_LOWER_SUFFIXES) or any(
        m in low for m in _LOWER_SUBSTRINGS
    ):
        return "lower"
    if any(m in low for m in _HIGHER_MARKERS):
        return "higher"
    return None


def _labels_suffix(labels: Dict[str, Any]) -> str:
    """Stable ``{k=v,...}`` rendering of a label dict for diff keys."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _comparables(doc: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Flatten a report into ``{key: (value, direction)}`` scalars.

    Covers phase durations, counters, histogram means, and numeric
    leaves of ``extra``; entries with no heuristic direction are
    dropped (they cannot regress).
    """
    out: Dict[str, Tuple[float, str]] = {}
    for p in doc.get("phases", ()):
        out[f"phase:{p['name']}.seconds"] = (p["seconds"], "lower")
    m = doc.get("metrics") or {}
    for c in m.get("counters", ()):
        d = _direction(c["name"])
        if d is not None:
            key = f"counter:{c['name']}{_labels_suffix(c['labels'])}"
            out[key] = (float(c["value"]), d)
    for h in m.get("histograms", ()):
        d = _direction(h["name"])
        if d is not None and h.get("count"):
            key = f"hist:{h['name']}{_labels_suffix(h['labels'])}.mean"
            out[key] = (float(h["mean"]), d)

    def walk_extra(prefix: str, node: Any) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk_extra(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            d = _direction(prefix)
            if d is not None:
                out[f"extra:{prefix}"] = (float(node), d)

    walk_extra("", doc.get("extra") or {})
    return out


@dataclass
class DiffEntry:
    """One compared scalar between two reports."""

    key: str
    old: float
    new: float
    direction: str
    #: relative change in the *bad* direction (positive == worse)
    change: float
    #: True when ``change`` exceeds the diff threshold
    regressed: bool


def diff_reports(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = 0.1,
) -> List[DiffEntry]:
    """Compare two report documents; flag relative regressions.

    Only keys present in *both* reports are compared (a disappeared
    metric is a schema change, not a regression), and baselines of
    ``<= 0`` are skipped — a relative ratchet has no footing there.
    ``threshold`` is the tolerated relative worsening (0.1 == 10%).
    Entries come back sorted worst-first.
    """
    a = _comparables(old)
    b = _comparables(new)
    entries: List[DiffEntry] = []
    for key in sorted(a.keys() & b.keys()):
        old_v, direction = a[key]
        new_v = b[key][0]
        if old_v <= 0:
            continue
        rel = (new_v - old_v) / old_v
        change = rel if direction == "lower" else -rel
        entries.append(
            DiffEntry(
                key=key,
                old=old_v,
                new=new_v,
                direction=direction,
                change=change,
                regressed=change > threshold,
            )
        )
    entries.sort(key=lambda e: -e.change)
    return entries


def format_diff(
    entries: List[DiffEntry],
    old: Optional[Dict[str, Any]] = None,
    new: Optional[Dict[str, Any]] = None,
    limit: int = 20,
) -> str:
    """Human-readable diff table (worst ``limit`` rows + a verdict line).

    When both report documents are supplied, a mismatch of rulebase
    fingerprints is called out — such diffs compare different compilers —
    and so is a numpy-version mismatch, since numpy-backend timings (and
    its cache keys) are pinned to the installed numpy.
    """
    lines: List[str] = []
    if old is not None and new is not None:
        fa = (old.get("fingerprints") or {}).get("rulebase")
        fb = (new.get("fingerprints") or {}).get("rulebase")
        if fa != fb:
            lines.append(
                "warning: rulebase fingerprints differ — "
                "reports measured different rule sets"
            )
        na = (old.get("env") or {}).get("numpy")
        nb = (new.get("env") or {}).get("numpy")
        if na != nb:
            lines.append(
                f"warning: numpy versions differ ({na} vs {nb}) — "
                "numpy-backend timings and cache keys may drift"
            )
    regressed = [e for e in entries if e.regressed]
    lines.append(
        f"{len(entries)} comparable metrics, {len(regressed)} regressed"
    )
    shown = entries[:limit]
    if shown:
        w = max(len(e.key) for e in shown)
        for e in shown:
            flag = " REGRESSED" if e.regressed else ""
            lines.append(
                f"  {e.key:<{w}} {e.old:>12.6g} -> {e.new:>12.6g} "
                f"({e.change:+.1%}{flag})"
            )
    if len(entries) > limit:
        lines.append(f"  ... {len(entries) - limit} more")
    return "\n".join(lines)
