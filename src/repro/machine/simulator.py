"""Executable simulation + throughput cost model for lowered programs.

**Execution** gives correctness: every :class:`TargetOp` evaluates through
its spec's reference semantics, so a lowered program can be run lane-by-lane
against the source expression (the paper's §6 "verified lowering" goal).

**Cost** gives performance: the paper's HVX numbers come from Qualcomm's
cycle-accurate simulator *with cache modelling disabled* ("to simulate a
compute-limited system") and its CPU numbers from wide out-of-order cores
running pure vector loops — in both regimes, runtime per vector of work is
dominated by instruction issue throughput.  We model

    cycles(program) = sum over distinct instructions of
        cost(instr) * ceil(L * elem_bits(instr) / register_bits)

where ``L`` is the number of elements processed per "iteration" (the
schedule's vectorization width) and ``elem_bits`` is the instruction's
operating element width — so operations on widened intermediates cost
proportionally more issues, reproducing the paper's observation that
"high-bit-width intermediate values halve SIMD throughput".

Structurally-identical subtrees are counted once (value numbering — both
Halide and LLVM CSE them; the interpreter memoizes them the same way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..interp.evaluator import Value, evaluate
from ..ir import expr as E
from ..ir.traversal import subexpressions
from ..ir.types import ScalarType
from ..targets import Target, TargetOp

__all__ = ["simulate", "cost_cycles", "instruction_count", "CostBreakdown"]


# ----------------------------------------------------------------------
# Execution: the interpreter runs TargetOps through the handler
# repro.targets.isa registers beside the node classes.
# ----------------------------------------------------------------------
def simulate(
    program: E.Expr, env: Mapping[str, Sequence[int]], lanes: Optional[int] = None
) -> Value:
    """Execute a lowered program lane-by-lane (exact semantics)."""
    return evaluate(program, env, lanes=lanes)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
@dataclass
class CostBreakdown:
    """Modelled cycles for one vector iteration, with per-instruction
    detail for the Figure 3-style comparisons."""

    total: float
    per_instruction: List[tuple]  # (mnemonic, issues, cost_each)
    instruction_count: int
    swizzle_cost: float


def _node_elem_bits(node: TargetOp) -> int:
    spec_bits = node.spec.elem_bits
    if spec_bits is not None:
        return spec_bits
    bits = 0
    out = node.out
    if isinstance(out, ScalarType) and not out.is_bool:
        bits = out.bits
    for child in node.children:
        t = child.type
        if isinstance(t, ScalarType) and not t.is_bool:
            # Broadcast constants live in a pre-loaded register; they do
            # not widen the operation.
            if isinstance(child, E.Const):
                continue
            bits = max(bits, t.bits)
    return bits or 8


def cost_cycles(
    program: E.Expr,
    target: Target,
    lanes: Optional[int] = None,
    swizzle_discount: float = 0.0,
) -> CostBreakdown:
    """Modelled cycles to produce ``lanes`` output elements.

    ``lanes`` defaults to the target's natural vectorization width (one
    register of bytes, matching the §5 schedules: 32/16/128 elements for
    x86/ARM/HVX).  ``swizzle_discount`` in [0, 1] removes that fraction of
    swizzle-instruction cost — the Rake oracle's layout co-optimization.
    """
    L = lanes if lanes is not None else target.desc.natural_lanes
    R = target.desc.register_bits

    total = 0.0
    swizzle_total = 0.0
    detail: List[tuple] = []
    count = 0

    for node in subexpressions(program):
        if not isinstance(node, TargetOp):
            continue
        elem_bits = _node_elem_bits(node)
        issues = max(1, math.ceil(L * elem_bits / R))
        c = node.spec.cost * issues
        if node.spec.swizzle and swizzle_discount:
            discounted = c * (1.0 - swizzle_discount)
            swizzle_total += c - discounted
            c = discounted
        total += c
        count += issues
        detail.append((node.spec.name, issues, node.spec.cost))

    return CostBreakdown(
        total=total,
        per_instruction=detail,
        instruction_count=count,
        swizzle_cost=swizzle_total,
    )


def instruction_count(program: E.Expr) -> int:
    """Distinct target instructions in the program (single-issue count)."""
    return sum(
        1 for node in subexpressions(program) if isinstance(node, TargetOp)
    )
