"""The lifting pass: primitive integer vector IR -> FPIR (§3.2).

Combines canonicalization, the hand-written rule set, and (optionally) the
offline-synthesized rules into one greedy bottom-up cost-decreasing TRS.
Which rules a lift runs is decided by :mod:`repro.rulesets`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..analysis import BoundsAnalyzer, BoundsContext
from ..ir.expr import Expr
from ..passes import Pass, PassContext
from ..trs.rewriter import RewriteEngine, RewriteResult
from ..trs.rule import Rule
from .canonicalize import canonicalize

__all__ = ["Lifter", "LiftPass", "EGraphLiftPass", "lift", "LIFT_STRATEGIES"]

#: the pluggable lift strategies (CLI ``--lift-strategy`` choices)
LIFT_STRATEGIES = ("greedy", "egraph")


class Lifter:
    """Lifting TRS over ``rules``, in priority order.

    Parameters
    ----------
    rules:
        the lift rules, default PITCHFORK's full set; the compilers pass
        what :mod:`repro.rulesets` gives their configuration.
    strategy:
        ``"greedy"`` (default) — the §3.2 ordered bottom-up TRS;
        ``"egraph"`` — greedy-anchored equality saturation with
        lowest-cost extraction (:class:`~repro.trs.egraph.EGraphLifter`).
    """

    def __init__(
        self,
        rules: Optional[Iterable[Rule]] = None,
        strategy: str = "greedy",
    ):
        if strategy not in LIFT_STRATEGIES:
            raise ValueError(
                f"unknown lift strategy {strategy!r}; "
                f"expected one of {LIFT_STRATEGIES}"
            )
        if rules is None:
            from .. import rulesets

            rules = rulesets.pitchfork().lift
        self.strategy = strategy
        self.engine = RewriteEngine(
            rules, require_cost_decrease=True, name="lift"
        )
        self._egraph = None
        if strategy == "egraph":
            from ..trs.egraph import EGraphLifter

            self._egraph = EGraphLifter(self.engine)

    def rewrite(
        self,
        expr: Expr,
        analyzer: Optional[BoundsAnalyzer] = None,
        obs=None,
        scorer=None,
    ) -> RewriteResult:
        """Rewrite an already-canonicalized expression to the FPIR
        fixed point (the pass pipeline canonicalizes separately).

        ``obs`` is an optional :class:`~repro.observe.Observation`
        receiving rule-fired telemetry and provenance.  ``scorer`` (only
        meaningful with ``strategy="egraph"``) ranks extraction
        candidates — the pipeline wires in lowered-cycle counting; see
        :class:`~repro.trs.egraph.EGraphLifter`."""
        ctx = BoundsContext(analyzer if analyzer is not None else BoundsAnalyzer())
        if self._egraph is not None:
            return self._egraph.rewrite(expr, ctx, obs=obs, scorer=scorer)
        return self.engine.rewrite(expr, ctx, obs=obs)

    def lift(
        self, expr: Expr, analyzer: Optional[BoundsAnalyzer] = None
    ) -> RewriteResult:
        """Canonicalize then rewrite to the FPIR fixed point."""
        return self.rewrite(canonicalize(expr), analyzer)


class LiftPass(Pass):
    """Pipeline stage wrapping a :class:`Lifter`'s rewrite engine.

    Expects canonicalized input (run a
    :class:`~repro.lifting.canonicalize.CanonicalizePass` first).  Exposes
    the lifted FPIR form and the rules used via ``ctx.extras`` so the
    compiled program can carry provenance.
    """

    name = "lift"

    def __init__(self, lifter: Lifter):
        self.lifter = lifter

    def run(self, expr: Expr, ctx: PassContext) -> Expr:
        result = self.lifter.rewrite(
            expr, BoundsAnalyzer(ctx.var_bounds), obs=ctx.observe
        )
        ctx.extras["lifted"] = result.expr
        ctx.extras["lift_rules_used"] = result.rules_used
        ctx.extras["lift_strategy"] = self.lifter.strategy
        ctx.rewrites += len(result.applications)
        return result.expr


class EGraphLiftPass(LiftPass):
    """Lift via equality saturation + lowest-cost extraction.

    Same pass name ("lift") and contract as :class:`LiftPass` — stats
    tables and verify-each hooks treat it identically — but it requires a
    :class:`Lifter` built with ``strategy="egraph"`` and additionally
    exposes the saturation shape via ``ctx.extras["egraph"]``.

    ``scorer`` (optional) ranks extraction candidates: each run calls
    ``scorer(var_bounds)`` once and scores every candidate of that lift
    with the callable it returns.  The pipeline passes its
    lowered-simulated-cycles scorer, which lowers all of one run's
    candidates through one bounds analyzer and one set of lowering
    memos, so extraction picks the candidate that actually lowers best,
    with the greedy result as the never-worse anchor.  That scorer keeps
    its fresh lowering of the anchor as ``anchor``; when the lift keeps
    the anchor, the pass hands that lowering on as
    ``ctx.extras["lowered_lift"]``, for :class:`LowerPass` to reuse.
    """

    def __init__(self, lifter: Lifter, scorer=None):
        if lifter.strategy != "egraph":
            raise ValueError(
                "EGraphLiftPass requires a Lifter(strategy='egraph')"
            )
        super().__init__(lifter)
        self.scorer = scorer

    def run(self, expr: Expr, ctx: PassContext) -> Expr:
        scorer = None if self.scorer is None else self.scorer(ctx.var_bounds)
        result = self.lifter.rewrite(
            expr, BoundsAnalyzer(ctx.var_bounds), obs=ctx.observe,
            scorer=scorer,
        )
        ctx.extras["lifted"] = result.expr
        ctx.extras["lift_rules_used"] = result.rules_used
        ctx.extras["lift_strategy"] = "egraph"
        anchor = getattr(scorer, "anchor", None)
        if anchor is not None and anchor[0] is result.expr:
            ctx.extras["lowered_lift"] = anchor
        stats = getattr(result, "egraph", None)
        if stats is not None:
            ctx.extras["egraph"] = {
                "iterations": stats.iterations,
                "enodes": stats.enodes,
                "eclasses": stats.eclasses,
                "applications": stats.applications,
                "saturated": stats.saturated,
            }
        ctx.rewrites += len(result.applications)
        return result.expr


def lift(expr: Expr, strategy: str = "greedy", **config) -> Expr:
    """One-shot convenience: lift with the rules
    :func:`repro.rulesets.pitchfork` gives for ``config``."""
    from .. import rulesets

    rules = rulesets.pitchfork(**config).lift
    return Lifter(rules, strategy).lift(expr).expr
