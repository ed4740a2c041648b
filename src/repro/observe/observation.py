"""The per-compile observation bundle: tracer + metrics + provenance.

An :class:`Observation` is what the pipeline threads through its layers
when the caller opts in (``pitchfork_compile(..., trace=obs)``): the
rewriter reports rule firings and index hit/miss outcomes into it, the pass
manager opens spans on its tracer, the lowerer tags expansion/residue
provenance.  Passing ``None`` (the default) keeps every hot path on its
uninstrumented branch — the observability overhead contract.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.expr import Expr
from .metrics import Counter, MetricsRegistry
from .provenance import Provenance
from .tracer import NullTracer, Tracer

__all__ = ["CountingMemo", "Observation"]


class CountingMemo(dict):
    """A memo dict that counts ``get`` hits/misses into two counters.

    The rewriter's hot path does ``memo.get(node)`` with expression
    values that are never ``None``, so a ``None`` result is a miss.
    Substituting this for a plain dict instruments cache behaviour with
    zero change to the lookup code.
    """

    def __init__(self, hits: Counter, misses: Counter):
        super().__init__()
        self.hits = hits
        self.misses = misses

    def get(self, key, default=None):
        """``dict.get`` plus hit/miss accounting."""
        value = dict.get(self, key, default)
        if value is None:
            self.misses.value += 1
        else:
            self.hits.value += 1
        return value


class Observation:
    """Bundles the three observability primitives for one compilation.

    Parameters
    ----------
    tracer:
        span/event sink; defaults to a live :class:`Tracer`.  Pass a
        :class:`NullTracer` to keep metrics/provenance but skip events.
    metrics:
        counter/histogram registry; defaults to a fresh private
        :class:`MetricsRegistry` (pass a shared one to aggregate across
        compilations).
    provenance:
        rule-chain record; defaults to a fresh :class:`Provenance`.
    rule_events:
        when True (default), every rule application also emits an instant
        event on the tracer — informative in ``chrome://tracing``, but
        heavy for bulk sweeps like the coverage report, which disables it.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        provenance: Optional[Provenance] = None,
        rule_events: bool = True,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.provenance = provenance if provenance is not None else Provenance()
        self.rule_events = rule_events and self.tracer.enabled

    # -- rewriter hooks ------------------------------------------------
    def rule_fired(
        self, phase: str, rule, before: Expr, after: Expr
    ) -> None:
        """One successful rule application: count, tag, optionally trace."""
        self.metrics.counter(
            "rule_fired", rule=rule.name, source=rule.source, phase=phase
        ).inc()
        self.provenance.record(phase, rule.name, rule.source, before, after)
        if self.rule_events:
            self.tracer.instant(
                f"rule:{rule.name}",
                phase=phase,
                source=rule.source,
                nodes_in=before.size,
                nodes_out=after.size,
            )

    def expansion(self, kind: str, name: str, before: Expr, after: Expr) -> None:
        """A non-rule production (FPIR expansion / generic residue map)."""
        self.metrics.counter("expansion", kind=kind, op=name).inc()
        self.provenance.record(kind, name, "builtin", before, after)

    def index_counters(self, phase: str) -> Dict[bool, Counter]:
        """``{True: hits, False: misses}`` rule-index counters for a phase.

        A *hit* is a candidate the discrimination-tree index passed to the
        full matcher; a *miss* is a rule it pruned without a match attempt
        (relative to the naive scan over the whole rulebase).  Together
        they total rules × consulted nodes, so ``misses / (hits+misses)``
        is the fraction of match attempts the index avoided.
        """
        return {
            True: self.metrics.counter("match_index", phase=phase, outcome="hit"),
            False: self.metrics.counter("match_index", phase=phase, outcome="miss"),
        }

    def egraph_stats(
        self,
        phase: str,
        iterations: int,
        enodes: int,
        eclasses: int,
        applications: int,
        saturated: bool,
    ) -> None:
        """Record one e-graph saturation session's shape."""
        self.metrics.histogram("egraph_iterations", phase=phase).observe(
            iterations
        )
        self.metrics.histogram("egraph_enodes", phase=phase).observe(enodes)
        self.metrics.histogram("egraph_eclasses", phase=phase).observe(
            eclasses
        )
        self.metrics.counter(
            "egraph_applications", phase=phase
        ).value += applications
        self.metrics.counter(
            "egraph_stop",
            phase=phase,
            outcome="saturated" if saturated else "budget",
        ).inc()

    def fixpoint(self, phase: str, passes: int) -> None:
        """Record how many fixpoint passes one rewrite session took."""
        self.metrics.histogram("fixpoint_passes", phase=phase).observe(passes)

    def memo(self, phase: str) -> CountingMemo:
        """A fresh memo dict whose cache hits/misses are counted."""
        return CountingMemo(
            self.metrics.counter("memo", phase=phase, outcome="hit"),
            self.metrics.counter("memo", phase=phase, outcome="miss"),
        )

    @classmethod
    def quiet(
        cls, metrics: Optional[MetricsRegistry] = None
    ) -> "Observation":
        """Metrics + provenance only: no event trace (bulk sweeps)."""
        return cls(tracer=NullTracer(), metrics=metrics, rule_events=False)
