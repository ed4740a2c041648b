"""WebAssembly SIMD128 backend (paper §8, §8.3).

§8.1: "WebAssembly SIMD was specifically designed to take advantage of
common hardware capabilities, and therefore is similar to the x86 and ARM
ISAs.  Supporting WebAssembly ... required no extensions to FPIR."

The baseline 128-bit packed SIMD set has the MMX-heritage fixed-point
instructions (saturating add/sub, ``avgr_u``) but, like x86, lacks
halving adds and absolute differences — it shares PITCHFORK's compound
bit-trick lowerings (§3.1.1: "x86, WebAssembly, and PowerPC ... share
PITCHFORK's fast non-widening implementation"), which, like the
predicated ``narrow_u``, this module takes from
:mod:`repro.targets.shared`.

§8.3's **Relaxed SIMD** is also modelled: ``i16x8.relaxed_q15mulr_s`` is
non-deterministic at INT16_MIN x INT16_MIN, so its lowering rule fires
only when bounds inference proves one operand excludes INT16_MIN —
"PITCHFORK's machinery can be used for ensuring determinism".  Without
that proof, the deterministic ``i16x8.q15mulr_sat_s`` is used instead
(1 cycle vs the relaxed form's 0.5 on engines that fuse it).
"""

from __future__ import annotations

from typing import List

from ..fpir import ops as F
from ..ir import expr as E
from ..ir.types import ScalarType
from ..trs.pattern import ConstWild, TNarrow, TVar, TWiden, TWithSign, Wild
from ..trs.rule import Rule
from . import shared
from .generic import GenericMapper
from .isa import TargetDesc, target_op

__all__ = ["DESC", "GENERIC", "LOWERING_RULES"]

DESC = TargetDesc(name="wasm-simd128", register_bits=128, max_elem_bits=64)

_GENERIC_COSTS = {
    "add": 1.0,
    "sub": 1.0,
    "mul": lambda bits: 1.0 if bits <= 32 else 6.0,
    "div": 28.0,
    "mod": 30.0,
    "min": 1.0,
    "max": 1.0,
    "and": 1.0,
    "or": 1.0,
    "xor": 1.0,
    "shl": 1.0,
    "shr": 1.0,
    "neg": 1.0,
    "not": 1.0,
    "cmp": 1.0,
    "select": 1.0,  # v128.bitselect
    "widen_u": 1.0,  # extend_low/high_u
    "widen_s": 1.0,
    "narrow": 1.5,  # narrow + shuffle for the truncating case
    "reinterpret": 0.0,
}

_SHAPE = {8: "i8x16", 16: "i16x8", 32: "i32x4", 64: "i64x2"}


def _mnemonic(kind: str, t: ScalarType) -> str:
    shape = _SHAPE.get(t.bits if isinstance(t, ScalarType) else 8, "i8x16")
    base = {
        "add": "add", "sub": "sub", "mul": "mul", "div": "div*",
        "mod": "mod*", "min": "min_u", "max": "max_u", "and": "and",
        "or": "or", "xor": "xor", "shl": "shl", "shr": "shr_u",
        "neg": "neg", "not": "not", "cmp": "gt_u",
        "select": "bitselect", "widen_u": "extend_u",
        "widen_s": "extend_s", "narrow": "narrowtrunc",
        "reinterpret": "mov",
    }[kind]
    if isinstance(t, ScalarType) and t.signed:
        base = {"min_u": "min_s", "max_u": "max_s", "shr_u": "shr_s",
                "gt_u": "gt_s"}.get(base, base)
    if kind in ("and", "or", "xor", "select", "not", "reinterpret"):
        return f"v128.{base}"
    return f"{shape}.{base}"


GENERIC = GenericMapper(DESC, _GENERIC_COSTS, _mnemonic)


# ----------------------------------------------------------------------
# Instruction specs (WebAssembly 128-bit packed SIMD + Relaxed SIMD)
# ----------------------------------------------------------------------
ADD_SAT = DESC.spec("add_sat", 1.0, lambda a, b: F.SaturatingAdd(a, b))
SUB_SAT = DESC.spec("sub_sat", 1.0, lambda a, b: F.SaturatingSub(a, b))
AVGR_U = DESC.spec("avgr_u", 1.0, lambda a, b: F.RoundingHalvingAdd(a, b))
ABS = DESC.spec("abs", 1.0, lambda a: F.Abs(a))
EXTMUL = DESC.spec("extmul_low", 1.0, lambda a, b: F.WideningMul(a, b))
NARROW_SAT_S = DESC.spec(
    "narrow_s", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8,
    swizzle=True,
)


def _narrow_u_semantics(a: E.Expr) -> E.Expr:
    """i16x8.narrow_u interprets its input as signed (like vpackuswb)."""
    t = a.type
    as_signed = a if t.signed else E.Reinterpret(t.with_signed(True), a)
    return F.SaturatingCast(t.narrow().with_signed(False), as_signed)


NARROW_SAT_U = DESC.spec(
    "narrow_u", 1.0, _narrow_u_semantics, elem_bits=8, swizzle=True
)
Q15MULR_SAT = DESC.spec(
    "q15mulr_sat_s", 1.0,
    lambda a, b: F.RoundingMulShr(a, b, E.Const(a.type, 15)),
)
#: §8.3: the relaxed form is cheaper (engines map it to pmulhrsw /
#: sqrdmulh without fixup) but only deterministic under a bounds proof.
RELAXED_Q15MULR = DESC.spec(
    "relaxed_q15mulr_s", 0.5,
    lambda a, b: F.RoundingMulShr(a, b, E.Const(a.type, 15)),
)
DOT_I16X8 = DESC.spec(
    "dot_i16x8_s", 1.0,
    lambda a, b, c, d: E.Add(F.WideningMul(a, b), F.WideningMul(c, d)),
)

INT16_MIN = -32768


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------
def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # -------- §8.3: relaxed q15mulr, predicated on determinism ---------
    T = TVar("T", signed=True, min_bits=16, max_bits=16)
    S = TVar("S", min_bits=16, max_bits=16)
    add(Rule(
        "wasm-relaxed-q15mulr",
        F.RoundingMulShr(Wild("x", T), Wild("y", T), ConstWild("c0", S)),
        target_op(RELAXED_Q15MULR, TVar("T"), Wild("x", T), Wild("y", T)),
        predicate=lambda m, ctx: m.consts["c0"] == 15
        and (
            ctx.lower_bounded(m.env["x"], INT16_MIN + 1)
            or ctx.lower_bounded(m.env["y"], INT16_MIN + 1)
        ),
    ))
    # deterministic fallback: plain q15mulr_sat_s
    add(shared.q_format_mul("wasm-q15mulr-sat", Q15MULR_SAT, 16))

    # -------- fused: i32x4.dot_i16x8_s ----------------------------------
    T = TVar("T", signed=True, min_bits=16, max_bits=16)
    add(Rule(
        "wasm-dot-i16x8",
        E.Add(
            F.WideningMul(Wild("a", T), Wild("b", T)),
            F.WideningMul(Wild("c", T), Wild("d", T)),
        ),
        target_op(
            DOT_I16X8, TWiden(T),
            Wild("a", T), Wild("b", T), Wild("c", T), Wild("d", T),
        ),
    ))

    # -------- direct mappings ------------------------------------------
    for fpir_cls, spec, max_bits in (
        (F.SaturatingAdd, ADD_SAT, 16),
        (F.SaturatingSub, SUB_SAT, 16),
    ):
        T = TVar("T", max_bits=max_bits)
        add(Rule(
            f"wasm-{spec.name}",
            fpir_cls(Wild("a", T), Wild("b", T)),
            target_op(spec, TVar("T"), Wild("a", T), Wild("b", T)),
        ))

    T = TVar("T", signed=False, max_bits=16)
    add(Rule(
        "wasm-avgr",
        F.RoundingHalvingAdd(Wild("a", T), Wild("b", T)),
        target_op(AVGR_U, TVar("T"), Wild("a", T), Wild("b", T)),
    ))

    T = TVar("T", signed=True, max_bits=32)
    add(Rule(
        "wasm-abs",
        F.Abs(Wild("a", T)),
        target_op(ABS, TWithSign(TVar("T"), False), Wild("a", T)),
    ))

    # widening multiplies: extmul
    for signed in (False, True):
        T = TVar("T", signed=signed, max_bits=32)
        add(Rule(
            f"wasm-extmul-{'s' if signed else 'u'}",
            F.WideningMul(Wild("a", T), Wild("b", T)),
            target_op(EXTMUL, TWiden(T), Wild("a", T), Wild("b", T)),
        ))

    # saturating narrows
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "wasm-narrow-s",
        F.SaturatingNarrow(Wild("a", T)),
        target_op(NARROW_SAT_S, TNarrow(T), Wild("a", T)),
    ))
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "wasm-narrow-u",
        F.SaturatingCast(TWithSign(TNarrow(T), False), Wild("a", T)),
        target_op(NARROW_SAT_U, TWithSign(TNarrow(T), False), Wild("a", T)),
    ))
    # predicated unsigned use (the input is interpreted as signed)
    add(shared.predicated_narrow("wasm-narrow-u-predicated", NARROW_SAT_U))

    # -------- compound lowerings (shared with x86, §3.1.1) --------------
    add(shared.halving_add_magic("wasm"))
    add(shared.absd_unsigned("wasm"))
    add(shared.absd_maxmin("wasm"))
    add(shared.rounding_shr_addshift("wasm"))
    add(shared.rounding_shr_magic("wasm"))

    return rules


LOWERING_RULES: List[Rule] = _rules()
