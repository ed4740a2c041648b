"""A Rake-like search-based instruction selector (the paper's oracle).

Rake [4] uses program synthesis to pick instruction sequences; it finds
(1) everything a well-stocked TRS finds, (2) globally-reordered
computations a local TRS cannot express (gaussian7x7 on ARM, §6), and
(3) swizzle co-optimizations on HVX (§5.3.2, §6).  It is orders of
magnitude slower than PITCHFORK.

We model it faithfully to that description:

* **search**: beam search over single rewrite applications drawn from the
  full PITCHFORK rule set *plus* oracle-only rules (global reorderings,
  swizzle-free narrowing variants), with each frontier state completed
  greedily and scored by the simulator's cycle model;
* **swizzle co-optimization**: Rake's cost model discounts most of the
  data-movement surcharge on HVX swizzle instructions;
* **cost**: deliberately exhaustive — the search explores many states per
  expression, reproducing the compile-time gap (§5.2 notes Rake is
  ~10^5x slower; our factor is smaller but qualitatively the same).

Rake supports ARM and HVX only (§5, footnote 3): :data:`RAKE_TARGETS`
names them, and requesting any other target raises.

This module doubles as the *lowering-rule synthesis oracle* of §4.2: given
a lifted expression, :meth:`RakeSelector.best_lowering` returns the optimal
instruction sequence, from which :mod:`repro.synthesis` derives rules.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

from .. import rulesets
from ..analysis import BoundsAnalyzer, BoundsContext
from ..ir import expr as E
from ..passes import Pass, PassContext
from ..targets import Target
from ..trs.matcher import instantiate, match
from ..trs.rule import Rule
from .lowerer import Lowerer, LoweringError
from .simulator import cost_cycles

__all__ = ["RakeSelector", "RAKE_SWIZZLE_DISCOUNT", "RAKE_TARGETS"]

#: The targets Rake has a backend for (§5, footnote 3).
RAKE_TARGETS = ("arm-neon", "hexagon-hvx")

#: Fraction of swizzle-instruction cost Rake's layout co-optimization
#: removes on HVX (it restructures computations so packs/deals vanish).
RAKE_SWIZZLE_DISCOUNT = 0.67


class RakeSelector(Pass):
    """Beam-search instruction selector over the extended rule space;
    as a pass (``search``), it lowers the lifted form."""

    name = "search"

    def __init__(
        self,
        target: Target,
        beam_width: int = 4,
        max_steps: int = 24,
        moves_per_state: int = 12,
    ):
        if target.name not in RAKE_TARGETS:
            raise ValueError(
                f"Rake has no {target.name} backend; it supports "
                f"{', '.join(RAKE_TARGETS)} (§5, footnote 3)"
            )
        self.target = target
        self.beam_width = beam_width
        self.max_steps = max_steps
        self.moves_per_state = moves_per_state
        # Greedy completion uses PITCHFORK's full rule set; the oracle-only
        # rules (reorderings, swizzle-free variants) are *search moves*
        # only — applying them greedily everywhere is exactly what a local
        # TRS cannot safely do (§6).
        rules = rulesets.rake(target)
        self.lowerer = Lowerer(target, rules.lower)
        self.move_rules: List[Rule] = [*rules.moves, *rules.lower]
        self.swizzle_discount = (
            RAKE_SWIZZLE_DISCOUNT if target.name == "hexagon-hvx" else 0.0
        )
        #: states explored in the last compile (compile-cost telemetry)
        self.states_explored = 0

    # ------------------------------------------------------------------
    def _complete(
        self, expr: E.Expr, analyzer: Optional[BoundsAnalyzer]
    ) -> Tuple[Optional[E.Expr], float]:
        try:
            lowered = self.lowerer.lower(
                expr, BoundsAnalyzer(analyzer.var_bounds) if analyzer else None
            )
        except LoweringError:
            return None, float("inf")
        cost = cost_cycles(
            lowered,
            self.target,
            swizzle_discount=self.swizzle_discount,
        ).total
        return lowered, cost

    def _moves(
        self, expr: E.Expr, ctx: BoundsContext
    ) -> Iterable[E.Expr]:
        """All single-rule-application successors (capped)."""
        produced = 0
        # Enumerate application sites: rewrite each distinct subtree once.
        seen = set()
        for node in expr.walk():
            if node in seen:
                continue
            seen.add(node)
            for rule in self.move_rules:
                if produced >= self.moves_per_state:
                    return
                out = rule.apply(node, ctx)
                if out is None or out == node:
                    continue
                produced += 1
                yield _replace_subtree(expr, node, out)

    def run(self, expr: E.Expr, ctx: PassContext) -> E.Expr:
        ctx.extras["swizzle_discount"] = self.swizzle_discount
        return self.best_lowering(expr, BoundsAnalyzer(ctx.var_bounds))[0]

    # ------------------------------------------------------------------
    def best_lowering(
        self,
        lifted: E.Expr,
        analyzer: Optional[BoundsAnalyzer] = None,
    ) -> Tuple[E.Expr, float]:
        """Search for the cheapest lowering of a lifted expression."""
        analyzer = analyzer if analyzer is not None else BoundsAnalyzer()
        ctx = BoundsContext(analyzer)
        self.states_explored = 0

        best_prog, best_cost = self._complete(lifted, analyzer)
        if best_prog is None:
            raise LoweringError(
                f"rake/{self.target.name}: greedy completion failed"
            )
        frontier: List[Tuple[float, int, E.Expr]] = [(best_cost, 0, lifted)]
        tiebreak = itertools.count(1)

        for _ in range(self.max_steps):
            candidates: List[Tuple[float, int, E.Expr, E.Expr]] = []
            for _, _, state in frontier:
                for succ in self._moves(state, ctx):
                    self.states_explored += 1
                    prog, cost = self._complete(succ, analyzer)
                    if prog is None:
                        continue
                    candidates.append((cost, next(tiebreak), succ, prog))
            if not candidates:
                break
            candidates.sort(key=lambda t: (t[0], t[1]))
            frontier = [
                (c, tb, state) for c, tb, state, _ in
                candidates[: self.beam_width]
            ]
            if candidates[0][0] < best_cost:
                best_cost = candidates[0][0]
                best_prog = candidates[0][3]
            else:
                break  # converged: no frontier state improves
        return best_prog, best_cost


def _replace_subtree(root: E.Expr, old: E.Expr, new: E.Expr) -> E.Expr:
    """Replace every occurrence of ``old`` (structural) in ``root``."""
    if root == old:
        return new
    kids = root.children
    if not kids:
        return root
    new_kids = [_replace_subtree(c, old, new) for c in kids]
    if all(n is o for n, o in zip(new_kids, kids)):
        return root
    return root.with_children(new_kids)
