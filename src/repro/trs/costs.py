"""The target-agnostic cost model of §3.2.

PITCHFORK's lifting TRS is guided by a lexicographic order:

1. **Bit-width sum** — for every instruction (non-leaf node), sum the
   bit-widths of its *inputs*.  This favours fewer, narrower-bit-width
   instructions: it is what makes ``halving_add(x_u8, y_u8)`` (16 input
   bits) cheaper than ``u8((u16(x) + u16(y)) / 2)`` (two 8-bit cast inputs
   + 32 bits into the add + 32 into the div + 16 into the narrowing cast).

2. **Operation rank** — ties are broken by an ordering over operations
   "designed to capture their average cost on real targets"; e.g.
   ``rounding_halving_add`` ranks slightly below ``halving_add`` because
   x86 supports only the former (vpavgb) and must emulate the latter.

3. **Node count** — final tie-break, favouring smaller trees.

Convergence of the greedy rewriter is guaranteed by requiring every rule
application to strictly reduce this cost (checked by the engine).
"""

from __future__ import annotations

from typing import Tuple

from ..fpir import ops as F
from ..ir import expr as E
from ..ir.types import ScalarType

__all__ = ["Cost", "cost", "local_cost", "OP_RANK"]

Cost = Tuple[int, int, int]

#: Average-cost rank per operation class.  Lower is cheaper.  The precise
#: values matter only relative to one another; they order rules that tie on
#: bit-width (§3.2's example: rounding_halving_add u8 < halving_add u8).
OP_RANK = {
    # Core IR — near-universal single-instruction ops.
    E.Add: 1,
    E.Sub: 1,
    E.Min: 1,
    E.Max: 1,
    E.BitAnd: 1,
    E.BitOr: 1,
    E.BitXor: 1,
    E.Neg: 1,
    E.Not: 1,
    E.LT: 1,
    E.LE: 1,
    E.GT: 1,
    E.GE: 1,
    E.EQ: 1,
    E.NE: 1,
    E.Select: 2,
    E.Shl: 2,
    E.Shr: 2,
    E.Cast: 2,
    E.Reinterpret: 0,  # free: a bit-level no-op
    E.Mul: 4,
    E.Div: 16,  # no vector integer division anywhere
    E.Mod: 16,
    # FPIR — single instructions on most fixed-point ISAs.
    F.WideningAdd: 1,
    F.WideningSub: 1,
    # Extending (accumulate) forms rank above their widening counterparts
    # so that Figure 4's reassociation rule — extending_add(extending_add(
    # x, y), z) -> widening_add(y, z) + x — strictly reduces cost.
    F.ExtendingAdd: 2,
    F.ExtendingSub: 2,
    F.Abs: 1,
    F.Absd: 1,
    F.SaturatingAdd: 1,
    F.SaturatingSub: 1,
    F.RoundingHalvingAdd: 1,  # x86/ARM/HVX all support it (vpavgb...)
    F.HalvingAdd: 2,  # x86 must emulate (§3.1.1)
    F.HalvingSub: 2,
    F.SaturatingCast: 3,  # saturating_narrow is its cheaper normal form
    F.SaturatingNarrow: 2,
    F.WideningShl: 2,
    F.WideningShr: 2,
    F.RoundingShl: 2,
    F.RoundingShr: 2,
    F.SaturatingShl: 2,
    F.WideningMul: 4,
    F.ExtendingMul: 4,
    F.MulShr: 4,
    F.RoundingMulShr: 4,
}

#: Rank charged for operations missing from the table (conservative).
_DEFAULT_RANK = 4


def _bits(t: object) -> int:
    return t.bits if isinstance(t, ScalarType) else 0


def local_cost(expr: E.Expr) -> Cost:
    """A node's own share of :func:`cost`: the widths of its children's
    types, its operation rank and one node (a leaf is one node only).

    ``cost(expr)`` is this plus the sum of its children's costs, so the
    cost of rebuilding ``expr`` over other children of the same types is
    known before the rebuild (the e-graph's extraction relies on it).
    """
    kids = expr.children
    if not kids:
        return (0, 0, 1)
    width = 0
    for c in kids:
        width += _bits(c.type)
    return (width, OP_RANK.get(type(expr), _DEFAULT_RANK), 1)


def cost(expr: E.Expr) -> Cost:
    """Lexicographic target-agnostic cost of an expression tree.

    The cost is compositional (a node's cost is the sum of its children's
    plus its :func:`local_cost`), so it is memoized per node: with
    hash-consed expressions every subtree is costed once, ever, instead
    of once per rule attempt at every node of every fixpoint pass.
    """
    cached = expr._cost
    if cached is not None:
        return cached
    width_sum, rank_sum, nodes = local_cost(expr)
    for c in expr.children:
        cw, cr, cn = cost(c)
        width_sum += cw
        rank_sum += cr
        nodes += cn
    result = (width_sum, rank_sum, nodes)
    object.__setattr__(expr, "_cost", result)
    return result
