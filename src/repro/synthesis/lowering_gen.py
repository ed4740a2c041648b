"""Generating lowering rewrite pairs from an instruction-selection oracle
(§4.2).

"PITCHFORK generates the left-hand-sides of lowering rules by using the
lifting system to lift a full example expression into FPIR and enumerating
small sub-expressions of the lifted expression, again up to a limit of 10
IR nodes.  Optimal right-hand-sides for these rules are provided by our
oracle — Rake."

A candidate pair is kept when the oracle's program for a sub-expression is
strictly cheaper (under the target cost model) than the greedy TRS
lowering — those are precisely the missed-fusion patterns (umlal for
``x + widening_shl(y, c)``, etc.).  Like the paper, we do not generate
x86 lowering rules (Rake has no x86 backend, §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .. import rulesets
from ..analysis import BoundsAnalyzer
from ..ir import expr as E
from ..ir.traversal import subexpressions
from ..lifting.lifter import Lifter
from ..machine.lowerer import Lowerer, LoweringError
from ..machine.rake_oracle import RakeSelector
from ..machine.simulator import cost_cycles
from ..targets import Target
from ..workloads import Workload
from .corpus import MAX_LHS_SIZE, canonicalize_variables

__all__ = ["LoweringPair", "generate_lowering_pairs"]


@dataclass
class LoweringPair:
    """A candidate lowering rule, before generalization."""

    lhs: E.Expr  # lifted FPIR sub-expression (concrete types)
    rhs: E.Expr  # the oracle's target program for it
    greedy_cycles: float
    oracle_cycles: float
    source: str  # benchmark name
    target: str

    @property
    def improvement(self) -> float:
        return self.greedy_cycles / self.oracle_cycles


def generate_lowering_pairs(
    workload: Workload,
    target: Target,
    max_size: int = MAX_LHS_SIZE,
    max_candidates: int = 64,
) -> List[LoweringPair]:
    """Mine one benchmark for lowering rules the greedy TRS is missing.

    The oracle is compared against the *hand* rule set — the paper's
    actual setting, since this machinery is what produced the
    synthesized rules in the first place.
    """
    oracle = RakeSelector(target)  # raises outside RAKE_TARGETS
    rules = rulesets.pitchfork(target, use_synthesized=False)
    analyzer = BoundsAnalyzer(workload.var_bounds)
    lifted = Lifter(rules.lift).lift(workload.expr, analyzer).expr

    greedy = Lowerer(target, rules.lower)
    pairs: List[LoweringPair] = []
    seen = set()

    for sub in subexpressions(lifted, max_size=max_size):
        if sub.size < 3 or isinstance(sub, (E.Var, E.Const)):
            continue
        canon = canonicalize_variables(sub)
        if canon in seen:
            continue
        seen.add(canon)
        if len(pairs) >= max_candidates:
            break
        try:
            greedy_prog = greedy.lower(
                canon, BoundsAnalyzer(workload.var_bounds)
            )
        except LoweringError:
            continue
        greedy_cost = cost_cycles(greedy_prog, target).total
        try:
            oracle_prog, _ = oracle.best_lowering(
                canon, BoundsAnalyzer(workload.var_bounds)
            )
        except LoweringError:
            continue
        # Compare on the plain cost model (no swizzle discount): a rule's
        # value must hold for PITCHFORK, which has no layout optimizer.
        oracle_cost = cost_cycles(oracle_prog, target).total
        if oracle_cost < greedy_cost:
            pairs.append(
                LoweringPair(
                    lhs=canon,
                    rhs=oracle_prog,
                    greedy_cycles=greedy_cost,
                    oracle_cycles=oracle_cost,
                    source=workload.name,
                    target=target.name,
                )
            )
    pairs.sort(key=lambda p: -p.improvement)
    return pairs


def synthesize_lowering_rules(
    workload: Workload,
    target: Target,
    max_size: int = MAX_LHS_SIZE,
    max_candidates: int = 64,
) -> List["Rule"]:
    """The complete §4.2 + §4.3 loop for one benchmark and target:
    mine improvement pairs against the oracle, generalize each into a
    verified symbolic rule ("Lowering rules are ordered using Rake's
    target-specific cost model" — we keep the pairs' improvement order),
    and return rules ready to prepend to the target's lowering TRS.
    """
    from ..trs.rule import Rule  # local import to keep module load light
    from .generalize import GeneralizationError, generalize_pair

    rules: List[Rule] = []
    for i, pair in enumerate(
        generate_lowering_pairs(
            workload, target, max_size=max_size,
            max_candidates=max_candidates,
        )
    ):
        try:
            rule = generalize_pair(
                pair.lhs,
                pair.rhs,
                name=f"synth-lower-{target.name}-{workload.name}-{i}",
                source=f"synth:{workload.name}",
            )
        except GeneralizationError:
            continue
        rules.append(rule)
    return rules
