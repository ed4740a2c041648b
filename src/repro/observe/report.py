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

``python -m repro report show FILE`` summarizes one.  A report records
a run; it does not judge one: speed claims are measured and compared by
the end-to-end benchmark (``benchmarks/e2e``).

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
from typing import Any, Dict, List, Optional

__all__ = [
    "RunReport",
    "SCHEMA_VERSION",
    "environment_info",
    "fingerprint_info",
    "load_report",
    "span_summary",
]

#: current report schema; bump the major on breaking layout changes
SCHEMA_VERSION = "repro-report/1"


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
    """Repro version plus the effective rulebase fingerprint per target,
    which name the compiler a report measured."""
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

