"""Observability: compile tracing, metrics, and instruction provenance.

Three cooperating primitives, bundled by :class:`Observation`:

* :class:`~repro.observe.tracer.Tracer` — span-based wall-clock tracing
  (compile → pass → rule application), exportable as Chrome-trace-viewer
  JSON (``chrome://tracing`` / Perfetto format);
* :class:`~repro.observe.metrics.MetricsRegistry` — labelled counters and
  histograms: per-rule fire counts, rule-index hit/miss ratios, memo-cache
  hits, rewrite iterations to fixpoint, e-graph saturation shape;
* :class:`~repro.observe.provenance.Provenance` — a record of which
  rewrite-rule chain produced each node of the lowered program, so every
  :class:`~repro.pipeline.CompiledProgram` can answer "which rules emitted
  this instruction?" (``--explain``).

:mod:`~repro.observe.report` rolls all three into one artifact: a
schema-versioned :class:`RunReport` JSON (``--report out.json`` on every
CLI command) with environment/rulebase fingerprints, per-phase wall
clock, the metrics snapshot, a span summary with critical path, and
cache stats; ``python -m repro report show FILE`` summarizes one.

The contract is *opt-in, near-zero overhead when off*: the hot paths
(:mod:`repro.trs.rewriter`, the lowerer) take an optional
``Observation`` and select instrumented code paths only when one is
present; the default (``None``) path is byte-identical to the
uninstrumented pipeline.  :mod:`repro.passes.manager` times every pass
by its span either way — on the observation's tracer, or on a private
one when there is none to record into.
"""

from .._lazy import lazy_exports
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QUANTILE_RELATIVE_ERROR,
)
from .observation import Observation
from .provenance import Provenance, ProvenanceEntry
from .tracer import NullTracer, Tracer

# the report writer runs only under --report and ``report show``
__getattr__, __dir__ = lazy_exports(globals(), {
    name: ".report" for name in ("RunReport", "load_report", "span_summary")
})

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Observation",
    "Provenance",
    "ProvenanceEntry",
    "QUANTILE_RELATIVE_ERROR",
    "RunReport",
    "Tracer",
    "load_report",
    "span_summary",
]
