"""The LLVM-based baseline compiler flow (the paper's comparison point).

Without PITCHFORK, Halide lowers FPIR intrinsics into primitive integer
arithmetic, runs LLVM's mid-end, and lets LLVM's SelectionDAG pick
instructions.  This module models that flow with three faithful components,
each calibrated against the concrete LLVM behaviour shown in Figure 3:

1. **Intrinsic expansion** — all FPIR becomes primitive integer IR, except
   ``saturating_add``/``saturating_sub``, which Halide emits as
   ``llvm.uadd.sat``-family intrinsics (footnote 9), so they stay
   selectable.

2. **Mid-end (instcombine)** — constant folding, identities, and the
   canonical strength reduction ``x * 2^k -> x << k``.  This is the
   transformation the paper singles out: "LLVM converts the multiplication
   into a bit-shift, which in turn causes the multiply-add pattern to not
   be triggered" (Figure 3a).

3. **ISel** — a pattern set containing only what LLVM reliably matches:
   widening adds/subs/muls/shifts from ``zext``/``sext`` shapes (uaddl,
   ushll, vaddubh, vmpa on HVX), ``abs``, and the kept saturating-add
   intrinsics.  Everything else — absd, saturating narrows, rounding
   averages, fused MACs — falls through to generic instruction selection,
   exactly the misses Figures 3b/3c document.

64-bit residues on HVX raise :class:`LLVMCompileError`, reproducing "HVX
does not support [64-bit types] and LLVM fails to compile" (§5.1).
:class:`LLVMSelectPass`, the flow's selection stage, then substitutes
PITCHFORK's 32-bit lowering, as the paper did.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import BoundsAnalyzer
from ..fpir import ops as F
from ..fpir.semantics import expand
from ..ir import expr as E
from ..ir.traversal import transform_bottom_up
from ..lifting.canonicalize import canonicalize
from ..passes import Pass, PassContext
from ..targets import Target, UnsupportedType
from ..targets import arm as _arm
from ..targets import hvx as _hvx
from ..targets import x86 as _x86
from ..trs.pattern import ConstWild, PConst, TVar, TWiden, TWithSign, Wild
from ..trs.rule import Rule
from .lowerer import Lowerer, LoweringError

__all__ = ["LLVMBaseline", "LLVMCompileError", "LLVMSelectPass", "llvm_midend"]


class LLVMCompileError(RuntimeError):
    """LLVM cannot compile this expression for this target (§5.1)."""


# ----------------------------------------------------------------------
# Mid-end
# ----------------------------------------------------------------------
def _strength_reduce(node: E.Expr) -> Optional[E.Expr]:
    if isinstance(node, E.Mul) and isinstance(node.b, E.Const):
        v = node.b.value
        if v > 1 and (v & (v - 1)) == 0:
            return E.Shl(node.a, E.Const(node.b.type, v.bit_length() - 1))
    return None


def _select_to_minmax(node: E.Expr) -> Optional[E.Expr]:
    """instcombine canonicalizes select(a < b, ...) into min/max
    intrinsics — one pattern LLVM genuinely gets right."""
    if not isinstance(node, E.Select):
        return None
    cond = node.cond
    if isinstance(cond, E.LT):
        a, b = cond.a, cond.b
    elif isinstance(cond, E.GT):
        a, b = cond.b, cond.a  # a < b rewritten
    else:
        return None
    if node.t == a and node.f == b:
        return E.Min(a, b)
    if node.t == b and node.f == a:
        return E.Max(a, b)
    return None


def llvm_midend(expr: E.Expr) -> E.Expr:
    """instcombine-alike: canonicalization, mul->shift strength reduction,
    select->min/max recognition."""
    expr = canonicalize(expr)
    expr = transform_bottom_up(expr, _strength_reduce)
    expr = transform_bottom_up(expr, _select_to_minmax)
    return canonicalize(expr)


def expand_intrinsics(
    expr: E.Expr,
    max_rounds: int = 16,
    keep_q31: bool = False,
    analyzer: Optional[BoundsAnalyzer] = None,
) -> E.Expr:
    """Expand FPIR to primitive IR, keeping llvm.*add.sat intrinsics.

    ``keep_q31`` additionally keeps ``rounding_mul_shr`` — the §5.1
    substitution: when LLVM cannot compile the 64-bit primitive spelling,
    the paper hands it "PITCHFORK's lowering of rounding_mul_shr that
    stays within 32-bit arithmetic".  In that mode, rounding shifts whose
    bias add provably cannot overflow expand back to their same-width
    ``(x + 2**(c-1)) >> c`` source form instead of the widening Table 1
    definition (which would reintroduce 64-bit lanes).
    """
    kept = (F.SaturatingAdd, F.SaturatingSub)
    if keep_q31:
        kept = kept + (F.RoundingMulShr,)
    bounds = analyzer if analyzer is not None else BoundsAnalyzer()

    def step(node: E.Expr) -> Optional[E.Expr]:
        if not isinstance(node, F.FPIRInstr) or isinstance(node, kept):
            return None
        if keep_q31 and isinstance(node, F.RoundingShr):
            narrow = _rounding_shr_same_width(node, bounds)
            if narrow is not None:
                return narrow
        return expand(node)

    for _ in range(max_rounds):
        new = transform_bottom_up(expr, step)
        if new == expr:
            return new
        expr = new
    raise LLVMCompileError("intrinsic expansion did not converge")


def _rounding_shr_same_width(
    node: "F.RoundingShr", bounds: BoundsAnalyzer
) -> Optional[E.Expr]:
    """(x + 2**(c-1)) >> c at x's own width, when provably overflow-free."""
    if not isinstance(node.b, E.Const):
        return None
    c = node.b.value
    t = node.a.type
    if not (0 < c < t.bits):
        return None
    r = 1 << (c - 1)
    if bounds.bounds(node.a).hi > t.max_value - r:
        return None
    return E.Shr(
        E.Add(node.a, E.Const(t, r)), E.Const(node.b.type, c)
    )


# ----------------------------------------------------------------------
# The patterns LLVM's ISel reliably matches (calibrated on Figure 3)
# ----------------------------------------------------------------------
def _llvm_arm_rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append
    a = _arm

    for signed, wadd, wsub, wmul, wshl, eadd in (
        (False, a.UADDL, a.USUBL, a.UMULL, a.USHLL, a.UADDW),
        (True, a.SADDL, a.SSUBL, a.SMULL, a.SSHLL, a.SADDW),
    ):
        T = TVar("T", signed=signed, max_bits=32)
        wide = TWiden(T)
        cast = lambda n: E.Cast(TWiden(TVar("T", signed=signed, max_bits=32)), Wild(n, TVar("T", signed=signed, max_bits=32)))
        # zext(x) + zext(y) -> uaddl
        add(Rule(
            f"llvm-arm-{wadd.name}",
            E.Add(cast("x"), cast("y")),
            target_op_rule(wadd, wide, "x", "y", T),
        ))
        # zext(x) << c -> ushll
        add(Rule(
            f"llvm-arm-{wshl.name}",
            E.Shl(cast("x"), ConstWild("c0", wide)),
            _shll_rhs(wshl, wide, T),
            predicate=lambda m, ctx: 0 <= m.consts["c0"] < m.tenv["T"].bits,
        ))
        # wide + zext(x) -> uaddw
        add(Rule(
            f"llvm-arm-{eadd.name}",
            E.Add(Wild("y", wide), cast("x")),
            _aarch_op2(eadd, wide, ("y", wide), ("x", T)),
        ))
        add(Rule(
            f"llvm-arm-{eadd.name}-swapped",
            E.Add(cast("x"), Wild("y", wide)),
            _aarch_op2(eadd, wide, ("y", wide), ("x", T)),
        ))
        # zext(x) * zext(y) -> umull
        add(Rule(
            f"llvm-arm-{wmul.name}",
            E.Mul(cast("x"), cast("y")),
            target_op_rule(wmul, wide, "x", "y", T),
        ))
        # zext(x) - zext(y): only the sign-correct form
        if signed:
            add(Rule(
                "llvm-arm-ssubl",
                E.Sub(cast("x"), cast("y")),
                target_op_rule(wsub, TWithSign(wide, True), "x", "y", T),
            ))

    # abs: LLVM canonicalizes the select form to llvm.abs -> abs
    T = TVar("T", signed=True, max_bits=64)
    x = Wild("x", T)
    add(Rule(
        "llvm-arm-abs",
        E.Select(E.GT(x, ConstWild("z", T)), x, E.Neg(x)),
        E.Reinterpret(
            TVar("T"),
            _op1(a.ABS, TWithSign(TVar("T"), False), ("x", T)),
        ),
        predicate=lambda m, ctx: m.consts["z"] == 0,
    ))

    # llvm.uadd.sat family
    for signed, qadd, qsub in ((False, a.UQADD, a.UQSUB), (True, a.SQADD, a.SQSUB)):
        T = TVar("T", signed=signed, max_bits=64)
        add(Rule(
            f"llvm-arm-{qadd.name}",
            F.SaturatingAdd(Wild("x", T), Wild("y", T)),
            _aarch_op2(qadd, TVar("T"), ("x", T), ("y", T)),
        ))
        add(Rule(
            f"llvm-arm-{qsub.name}",
            F.SaturatingSub(Wild("x", T), Wild("y", T)),
            _aarch_op2(qsub, TVar("T"), ("x", T), ("y", T)),
        ))
    return rules


def _op1(spec, out, a):
    from ..targets import target_op

    name, t = a
    return target_op(spec, out, Wild(name, t))


def _aarch_op2(spec, out, a, b):
    from ..targets import target_op

    (na, ta), (nb, tb) = a, b
    return target_op(spec, out, Wild(na, ta), Wild(nb, tb))


def _op4(spec, out, a, b, c, d):
    from ..targets import target_op

    return target_op(
        spec, out, *(Wild(n, t) for n, t in (a, b, c, d))
    )


def target_op_rule(spec, out, na, nb, T):
    """Two-operand TargetOp pattern builder (rule RHS helper)."""
    from ..targets import target_op

    return target_op(spec, out, Wild(na, T), Wild(nb, T))


def _shll_rhs(spec, wide, T):
    from ..targets import target_op

    return target_op(
        spec, wide, Wild("x", T), PConst(TVar("T"), lambda c: c["c0"])
    )


def _llvm_x86_rules() -> List[Rule]:
    rules: List[Rule] = []
    x = _x86
    # llvm.uadd.sat family (8/16-bit native)
    for signed, qadd, qsub in (
        (False, x.VPADDUS, x.VPSUBUS),
        (True, x.VPADDS, x.VPSUBS),
    ):
        T = TVar("T", signed=signed, max_bits=16)
        rules.append(Rule(
            f"llvm-x86-{qadd.name}",
            F.SaturatingAdd(Wild("a", T), Wild("b", T)),
            _aarch_op2(qadd, TVar("T"), ("a", T), ("b", T)),
        ))
        rules.append(Rule(
            f"llvm-x86-{qsub.name}",
            F.SaturatingSub(Wild("a", T), Wild("b", T)),
            _aarch_op2(qsub, TVar("T"), ("a", T), ("b", T)),
        ))
    # (sext(a)*sext(w)) + (sext(b)*sext(v)) -> vpmaddwd: LLVM's x86
    # backend genuinely has this DAG combine for i16 pairs.
    T = TVar("T", signed=True, min_bits=16, max_bits=16)
    wide = TWiden(T)

    def scast(n):
        Ts = TVar("T", signed=True, min_bits=16, max_bits=16)
        return E.Cast(TWiden(Ts), Wild(n, Ts))

    rules.append(Rule(
        "llvm-x86-vpmaddwd",
        E.Add(
            E.Mul(scast("a"), scast("b")),
            E.Mul(scast("c"), scast("d")),
        ),
        _op4(x.VPMADDWD, wide, ("a", T), ("b", T), ("c", T), ("d", T)),
    ))

    # abs select form -> vpabs
    T = TVar("T", signed=True, max_bits=32)
    w = Wild("x", T)
    rules.append(Rule(
        "llvm-x86-vpabs",
        E.Select(E.GT(w, ConstWild("z", T)), w, E.Neg(w)),
        E.Reinterpret(
            TVar("T"), _op1(x.VPABS, TWithSign(TVar("T"), False), ("x", T))
        ),
        predicate=lambda m, ctx: m.consts["z"] == 0,
    ))
    return rules


def _llvm_hvx_rules() -> List[Rule]:
    rules: List[Rule] = []
    h = _hvx
    # widening add from zext/sext shapes -> vaddubh / vaddhw
    for signed in (False, True):
        T = TVar("T", signed=signed, max_bits=16)
        wide = TWiden(T)
        cast = lambda n: E.Cast(TWiden(TVar("T", signed=signed, max_bits=16)), Wild(n, TVar("T", signed=signed, max_bits=16)))
        rules.append(Rule(
            f"llvm-hvx-vadd-w-{'s' if signed else 'u'}",
            E.Add(cast("x"), cast("y")),
            target_op_rule(h.VADD_W, wide, "x", "y", T),
        ))
        # vmpa: (zext(b) << c) + zext(z)  (Figure 3a: LLVM finds the
        # non-accumulating vmpa)
        for swapped in (False, True):
            shl = E.Shl(cast("y"), ConstWild("c0", wide))
            other = cast("z")
            lhs = E.Add(other, shl) if swapped else E.Add(shl, other)
            rules.append(Rule(
                f"llvm-hvx-vmpa-{'s' if signed else 'u'}"
                + ("-swapped" if swapped else ""),
                lhs,
                _vmpa_rhs(h.VMPA, wide, T),
                predicate=lambda m, ctx: 0
                <= m.consts["c0"]
                < m.tenv["T"].bits - 1,
            ))
    # saturating add intrinsics -> vadd:sat
    T = TVar("T", max_bits=32)
    rules.append(Rule(
        "llvm-hvx-vadd-sat",
        F.SaturatingAdd(Wild("a", T), Wild("b", T)),
        _aarch_op2(h.VADD_SAT, TVar("T"), ("a", T), ("b", T)),
    ))
    rules.append(Rule(
        "llvm-hvx-vsub-sat",
        F.SaturatingSub(Wild("a", T), Wild("b", T)),
        _aarch_op2(h.VSUB_SAT, TVar("T"), ("a", T), ("b", T)),
    ))
    return rules


def _vmpa_rhs(spec, wide, T):
    from ..targets import target_op

    return target_op(
        spec,
        wide,
        Wild("y", T),
        Wild("z", T),
        PConst(TVar("T"), lambda c: 1 << c["c0"]),
        PConst(TVar("T"), 1),
    )


_LLVM_RULES = {
    "arm-neon": _llvm_arm_rules,
    "x86-avx2": _llvm_x86_rules,
    "hexagon-hvx": _llvm_hvx_rules,
}


def _llvm_rules_for(target_name: str) -> List[Rule]:
    """Calibrated pattern sets exist for the paper's three targets; for
    the §8 extension backends LLVM gets generic selection only (matching
    the immaturity of their real fixed-point support)."""
    builder = _LLVM_RULES.get(target_name)
    return builder() if builder is not None else []


class LLVMBaseline:
    """The no-PITCHFORK selection: expand -> mid-end -> LLVM-ISel.

    ``allow_q31_substitution`` selects the §5.1 retry: the primitive q31
    requantization is replaced by the 32-bit ``rounding_mul_shr``
    sequence.  :class:`LLVMSelectPass` uses it only after a plain
    attempt failed (64-bit residues on HVX), as the paper did.
    """

    def __init__(self, target: Target, allow_q31_substitution: bool = False):
        from .. import rulesets
        from ..lifting.lifter import Lifter

        self.target = target
        self.allow_q31_substitution = q31 = allow_q31_substitution
        rules = rulesets.llvm(target, q31=q31)
        # The baseline lowerer carries ONLY the LLVM pattern set; no
        # PITCHFORK fused/direct/predicated/compound rules.
        self.lowerer = Lowerer(target, rules.lower)
        # §5.1 substitution: the lifter recognizes the primitive q31
        # requantize (standing in for rewriting the benchmark source to
        # use the intrinsic).  Built once: its rewrite memo is per call,
        # so reuse cannot change a lift.
        self.q31_lifter = Lifter(rules.lift) if q31 else None

    def compile(
        self, expr: E.Expr, analyzer: Optional[BoundsAnalyzer] = None
    ) -> E.Expr:
        """Compile a source (pre-lift) expression the LLVM way."""
        if self.q31_lifter is not None:
            # keep the q31 requantize as an intrinsic LLVM can select;
            # expand everything else to primitive IR
            expr = self.q31_lifter.lift(expr, analyzer).expr
        primitive = expand_intrinsics(
            expr,
            keep_q31=self.allow_q31_substitution,
            analyzer=analyzer,
        )
        optimized = llvm_midend(primitive)
        try:
            return self.lowerer.lower(optimized, analyzer)
        except (UnsupportedType, LoweringError) as exc:
            raise LLVMCompileError(str(exc)) from exc


class LLVMSelectPass(Pass):
    """Pipeline stage: :meth:`LLVMBaseline.compile`, retried with the
    §5.1 q31 substitution when it raises (the error goes to
    ``ctx.extras["q31_retry"]``), so one compile is charged both tries."""

    name = "select"

    def __init__(self, target: Target):
        self.plain = LLVMBaseline(target)
        self.q31 = LLVMBaseline(target, allow_q31_substitution=True)

    def run(self, expr: E.Expr, ctx: PassContext) -> E.Expr:
        try:
            return self.plain.compile(expr, BoundsAnalyzer(ctx.var_bounds))
        except LLVMCompileError as exc:
            ctx.extras["q31_retry"] = str(exc)
        return self.q31.compile(expr, BoundsAnalyzer(ctx.var_bounds))


def _q31_sequence_rules(target_name: str) -> List[Rule]:
    """The 32-bit rounding_mul_shr sequence lent to LLVM (§5.1).

    Modelled as one pseudo-instruction whose cost is the length of the
    real 32-bit sequence (paired 32x32->64 multiplies, shifts, blends).
    """
    from ..targets.isa import InstrSpec, target_op

    seq = InstrSpec(
        name="q31_mulr_seq",
        isa=target_name,
        cost=8.0,
        semantics=lambda a, b: F.RoundingMulShr(
            a, b, E.Const(a.type, 31)
        ),
    )
    T = TVar("T", signed=True, min_bits=32, max_bits=32)
    S = TVar("S", min_bits=32, max_bits=32)
    return [
        Rule(
            f"llvm-{target_name}-q31-seq",
            F.RoundingMulShr(
                Wild("x", T), Wild("y", T), ConstWild("c0", S)
            ),
            target_op(seq, TVar("T"), Wild("x", T), Wild("y", T)),
            predicate=lambda m, ctx: m.consts["c0"] == 31,
        )
    ]
