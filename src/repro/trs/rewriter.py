"""The greedy bottom-up fixed-point term-rewriting engine (§3.2).

The engine "traverses the expression tree bottom up, greedily applying a set
of ordered rules ... and repeats this process until the expression converges
to a fixed point.  Convergence is guaranteed by requiring that each rule
strictly reduces a target-agnostic cost.  Rules that could match on the same
input are also ordered using this cost, with the lower-cost output
preferred."

Two configurations are used in the system:

* the **lifting** TRS enforces strict cost decrease under the target-
  agnostic cost model (guaranteeing termination by well-foundedness);
* the **lowering** TRSs translate *between* languages (FPIR -> target
  intrinsics), where the target-agnostic cost is not meaningful; they rely
  on rule stratification (each rule's output contains strictly more target
  nodes and fewer FPIR nodes) plus an iteration cap as a backstop.

Rewriting is memoized: for a fixed rule set and context, one fixpoint pass
is a pure function of the subtree it runs on, so per-subtree results are
cached (``memo``) and survive across fixpoint passes — a subtree that came
out of a pass unchanged is in normal form and is never re-traversed.  With
hash-consed expressions the cache is keyed by identity, so the 64-pass
worst case degrades gracefully to O(changed region) per pass instead of
O(whole tree).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..ir.expr import Expr
from .costs import cost
from .index import RuleIndex
from .rule import Rule, RuleContext

__all__ = ["RewriteEngine", "RewriteResult", "RewriteError"]


class RewriteError(RuntimeError):
    """Raised when rewriting fails to converge within the iteration cap."""


class RewriteResult:
    """The outcome of a rewriting session, with an application trace.

    Note that with memoized rewriting, a rule firing on N structurally
    identical occurrences of a subtree is traced once, not N times.
    """

    def __init__(self, expr: Expr, applications: List[Tuple[str, Expr, Expr]]):
        self.expr = expr
        #: list of (rule name, before, after) in application order
        self.applications = applications

    @property
    def rules_used(self) -> List[str]:
        return [name for name, _, _ in self.applications]


class RewriteEngine:
    """A rule set + traversal strategy.

    ``require_cost_decrease`` enables the lifting-style termination
    argument: a rule application whose output does not strictly reduce the
    target-agnostic cost is rejected (and, with ``strict=True``, reported —
    useful when validating new rule sets).
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        require_cost_decrease: bool = False,
        max_passes: int = 64,
        strategy: str = "bottom_up",
        name: str = "trs",
        use_index: bool = True,
    ):
        if strategy not in ("bottom_up", "top_down"):
            raise ValueError(f"unknown strategy {strategy!r}")
        #: phase label stamped on telemetry (e.g. "lift", "lower")
        self.name = name
        #: the rule set, frozen at construction.  The engine's match
        #: index is built once from this sequence, and the fabric's
        #: cache keys fingerprint it, so mutating it after construction
        #: would desynchronize both — build a new engine to change rules.
        self.rules = tuple(rules)
        self.require_cost_decrease = require_cost_decrease
        self.max_passes = max_passes
        self.strategy = strategy
        #: ``use_index=False`` selects the pre-index linear scan — kept
        #: as a reference path for differential tests and benchmarks.
        self.use_index = use_index
        self._index = RuleIndex(self.rules)
        self._candidates = (
            self._index.candidates if use_index
            else self._index.candidates_linear
        )

    @property
    def index(self) -> RuleIndex:
        """The discrimination-tree index over this engine's rules."""
        return self._index

    def rules_for(self, expr: Expr) -> List[Rule]:
        """Candidate rules for ``expr``'s shallow shape, priority order.

        Only rules whose pattern root and shallow child symbols admit the
        node are returned; the full matcher (and predicate) still decides
        whether each candidate actually applies.
        """
        return list(self._candidates(expr))

    # ------------------------------------------------------------------
    def rewrite(
        self,
        expr: Expr,
        ctx: Optional[RuleContext] = None,
        memo: Optional[Dict[Expr, Expr]] = None,
        obs=None,
    ) -> RewriteResult:
        """Rewrite to a fixed point; returns the result and its trace.

        ``memo`` caches per-subtree single-pass results.  It is valid for
        as long as the rule set and ``ctx`` are unchanged; callers running
        several rewrite sessions under one context (the lowering loop) may
        pass a shared dict to reuse work across sessions.

        ``obs`` is an optional :class:`~repro.observe.Observation`: when
        present, an instrumented matcher loop reports every rule firing
        (name, source, subtree sizes), index hit/miss counts and the
        number of fixpoint passes.  When absent (the default) the
        uninstrumented loop below runs — the zero-overhead contract.
        """
        ctx = ctx if ctx is not None else RuleContext()
        trace: List[Tuple[str, Expr, Expr]] = []
        if memo is None:
            memo = {} if obs is None else obs.memo(self.name)
        gate = self.require_cost_decrease
        candidates_for = self._candidates

        if obs is None:

            def apply_at(node: Expr) -> Optional[Expr]:
                # Greedy: rules are pre-ordered (cheapest output first);
                # the first applicable candidate wins.  The index already
                # filtered by shallow shape, so every candidate goes
                # straight to the full matcher.
                cands = candidates_for(node)
                if not cands:
                    return None
                node_cost = cost(node) if gate else None
                for rule in cands:
                    out = rule.apply(node, ctx)
                    if out is None:
                        continue
                    if gate and not (cost(out) < node_cost):
                        continue
                    trace.append((rule.name, node, out))
                    return out
                return None

        else:
            phase = self.name
            idx = obs.index_counters(phase)
            hits, misses = idx[True], idx[False]
            n_rules = len(self.rules)
            cost_rejects = obs.metrics.counter("cost_rejected", phase=phase)

            def apply_at(node: Expr) -> Optional[Expr]:
                # Instrumented twin of the loop above: identical rewrite
                # decisions, plus telemetry per consulted node.  A "hit"
                # is a candidate the index let through to the matcher; a
                # "miss" is a rule the index pruned without a match
                # attempt (vs. the naive scan over the whole rulebase).
                cands = candidates_for(node)
                hits.value += len(cands)
                misses.value += n_rules - len(cands)
                if not cands:
                    return None
                node_cost = cost(node) if gate else None
                for rule in cands:
                    out = rule.apply(node, ctx)
                    if out is None:
                        continue
                    if gate and not (cost(out) < node_cost):
                        cost_rejects.value += 1
                        continue
                    trace.append((rule.name, node, out))
                    obs.rule_fired(phase, rule, node, out)
                    return out
                return None

        # Provenance survives interior rebuilds: a node reconstructed
        # because a child changed is the same production step with new
        # operands (only consulted on the instrumented path).
        inherit = None if obs is None else obs.provenance.inherit

        if self.strategy == "bottom_up":

            def step(node: Expr) -> Expr:
                cached = memo.get(node)
                if cached is not None:
                    return cached
                kids = node.children
                cur = node
                if kids:
                    new_kids = [step(c) for c in kids]
                    if any(n is not o for n, o in zip(new_kids, kids)):
                        cur = node.with_children(new_kids)
                        if inherit is not None:
                            inherit(node, cur)
                replaced = apply_at(cur)
                result = cur if replaced is None else replaced
                memo[node] = result
                return result

        else:

            def step(node: Expr) -> Expr:
                cached = memo.get(node)
                if cached is not None:
                    return cached
                replaced = apply_at(node)
                cur = node if replaced is None else replaced
                kids = cur.children
                result = cur
                if kids:
                    new_kids = [step(c) for c in kids]
                    if any(n is not o for n, o in zip(new_kids, kids)):
                        result = cur.with_children(new_kids)
                        if inherit is not None:
                            inherit(cur, result)
                memo[node] = result
                return result

        current = expr
        for i in range(self.max_passes):
            new = step(current)
            if new is current or new == current:
                if obs is not None:
                    obs.fixpoint(self.name, i + 1)
                return RewriteResult(current, trace)
            current = new
        raise RewriteError(
            f"rewriting did not converge within {self.max_passes} passes "
            f"(last: {current})"
        )

    def rewrite_expr(
        self,
        expr: Expr,
        ctx: Optional[RuleContext] = None,
        memo: Optional[Dict[Expr, Expr]] = None,
        obs=None,
    ) -> Expr:
        """Convenience: rewrite and return just the expression."""
        return self.rewrite(expr, ctx, memo=memo, obs=obs).expr
