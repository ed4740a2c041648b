"""x86 AVX2 (256-bit) backend: instruction specs + lowering TRS.

x86 implements far fewer fixed-point instructions than ARM or HVX (§5.1.4),
so this backend leans on the *compound instruction* rule class: efficient
multi-instruction lowerings of FPIR ops the ISA lacks, several of them the
classic bit-tricks of Dietz's Aggregate Magic Algorithms (the paper's [17]):
``halving_add`` as ``(x & y) + ((x ^ y) >> 1)``, unsigned ``absd`` as
``por(psubus(x, y), psubus(y, x))``, ``rounding_shr`` as shift + carry bit.
Those that WebAssembly and PowerPC share are written once, in
:mod:`repro.targets.shared`; so is the predicated ``vpackus`` rule.

Costs are reciprocal throughputs per the Intel intrinsics guide for
Skylake-class server cores (the paper measured a Xeon 8275CL).
"""

from __future__ import annotations

from typing import List

from ..fpir import ops as F
from ..ir import expr as E
from ..ir.types import ScalarType
from ..trs.pattern import (
    ConstWild,
    PConst,
    TNarrow,
    TVar,
    TWiden,
    TWithSign,
    Wild,
)
from ..trs.rule import Rule
from . import shared
from .generic import GenericMapper
from .isa import TargetDesc, target_op

__all__ = ["DESC", "GENERIC", "LOWERING_RULES"]

DESC = TargetDesc(name="x86-avx2", register_bits=256, max_elem_bits=64)

_GENERIC_COSTS = {
    "add": 0.5,
    "sub": 0.5,
    "mul": lambda bits: {8: 2.0, 16: 1.0, 32: 1.0, 64: 5.0}[bits],
    "div": 24.0,
    "mod": 26.0,
    "min": 0.5,
    "max": 0.5,
    "and": 0.5,
    "or": 0.5,
    "xor": 0.5,
    "shl": 1.0,
    "shr": 1.0,
    "neg": 1.0,  # psign / sub-from-zero
    "not": 0.5,
    "cmp": 0.5,
    "select": 2.0,  # vpblendvb: 2 uops
    "widen_u": 1.0,  # vpmovzx
    "widen_s": 1.0,  # vpmovsx
    "narrow": 1.5,  # vpshufb+vpermq (amortized across halves)
    "reinterpret": 0.0,
}

_SUFFIX = {8: "b", 16: "w", 32: "d", 64: "q"}

_MNEMONIC_BASE = {
    "add": "vpadd",
    "sub": "vpsub",
    "mul": "vpmull",
    "div": "div*",
    "mod": "mod*",
    "min": "vpminu",
    "max": "vpmaxu",
    "and": "vpand",
    "or": "vpor",
    "xor": "vpxor",
    "shl": "vpsll",
    "shr": "vpsrl",
    "neg": "vpsign",
    "not": "vpandn",
    "cmp": "vpcmpgt",
    "select": "vpblendvb",
    "widen_u": "vpmovzx",
    "widen_s": "vpmovsx",
    "narrow": "vpacktrunc",
    "reinterpret": "vmov",
}


def _mnemonic(kind: str, t: ScalarType) -> str:
    base = _MNEMONIC_BASE[kind]
    bits = t.bits if isinstance(t, ScalarType) else 8
    if isinstance(t, ScalarType) and t.signed:
        base = {"vpminu": "vpmins", "vpmaxu": "vpmaxs", "vpsrl": "vpsra"}.get(
            base, base
        )
    if kind in ("and", "or", "xor", "select", "not", "reinterpret"):
        return base
    return base + _SUFFIX.get(bits, "b")


GENERIC = GenericMapper(DESC, _GENERIC_COSTS, _mnemonic)


# ----------------------------------------------------------------------
# Native fixed-point instructions (8/16-bit only, the MMX heritage)
# ----------------------------------------------------------------------
VPADDUS = DESC.spec("vpaddus", 0.5, lambda a, b: F.SaturatingAdd(a, b))
VPADDS = DESC.spec("vpadds", 0.5, lambda a, b: F.SaturatingAdd(a, b))
VPSUBUS = DESC.spec("vpsubus", 0.5, lambda a, b: F.SaturatingSub(a, b))
VPSUBS = DESC.spec("vpsubs", 0.5, lambda a, b: F.SaturatingSub(a, b))
VPAVG = DESC.spec("vpavg", 0.5, lambda a, b: F.RoundingHalvingAdd(a, b))
VPABS = DESC.spec("vpabs", 0.5, lambda a: F.Abs(a))
VPMULHW = DESC.spec(
    "vpmulhw", 1.0,
    lambda a, b: F.MulShr(a, b, E.Const(a.type, a.type.bits)),
)
VPMULHUW = DESC.spec(
    "vpmulhuw", 1.0,
    lambda a, b: F.MulShr(a, b, E.Const(a.type, a.type.bits)),
)
VPMULHRSW = DESC.spec(
    "vpmulhrsw", 1.0,
    lambda a, b: F.RoundingMulShr(a, b, E.Const(a.type, a.type.bits - 1)),
)
VPACKSS = DESC.spec(
    "vpackss", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8,
    swizzle=True,
)
def _vpackus_semantics(a: E.Expr) -> E.Expr:
    """vpackus{wb,dw}: the input is interpreted as SIGNED, then saturated
    into the unsigned narrow type — which is why using it on unsigned data
    requires the §3.3 bounds predicate."""
    t = a.type
    as_signed = a if t.signed else E.Reinterpret(t.with_signed(True), a)
    return F.SaturatingCast(t.narrow().with_signed(False), as_signed)


VPACKUS = DESC.spec(
    "vpackus", 1.0, _vpackus_semantics, elem_bits=8, swizzle=True,
)
Q31_MULR_SEQ = DESC.spec(
    "q31_mulr_seq", 6.0,
    lambda a, b: F.RoundingMulShr(a, b, E.Const(a.type, 31)),
)
VPMADDWD = DESC.spec(
    "vpmaddwd",
    1.0,
    lambda a, b, c, d: E.Add(F.WideningMul(a, b), F.WideningMul(c, d)),
)


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------
def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # -------- fused: vpmaddwd (dot-product pairs, §5.1.1) -------------
    T = TVar("T", signed=True, min_bits=16, max_bits=16)
    add(Rule(
        "x86-vpmaddwd",
        E.Add(
            F.WideningMul(Wild("a", T), Wild("b", T)),
            F.WideningMul(Wild("c", T), Wild("d", T)),
        ),
        target_op(
            VPMADDWD, TWiden(T),
            Wild("a", T), Wild("b", T), Wild("c", T), Wild("d", T),
        ),
    ))

    # -------- specific constants: high multiplies ---------------------
    for signed, spec in ((True, VPMULHW), (False, VPMULHUW)):
        T = TVar("T", signed=signed, min_bits=16, max_bits=16)
        S = TVar("S", min_bits=16, max_bits=16)
        add(Rule(
            f"x86-{spec.name}",
            F.MulShr(Wild("x", T), Wild("y", T), ConstWild("c0", S)),
            target_op(spec, TVar("T"), Wild("x", T), Wild("y", T)),
            predicate=lambda m, ctx: m.consts["c0"] == 16,
        ))
    add(shared.q_format_mul("x86-vpmulhrsw", VPMULHRSW, 16))
    # Q31 rounding doubling multiply within 32-bit arithmetic: the x86
    # compound sequence the paper lends to the LLVM baseline for the
    # 64-bit benchmarks (§5.1).  Modelled as one pseudo-spec whose cost is
    # the length of the real sequence (pmuldq pairs + shifts + blend).
    add(shared.q_format_mul("x86-q31-mulr-seq", Q31_MULR_SEQ, 32))

    # -------- direct: saturating arithmetic (8/16-bit) ----------------
    for fpir_cls, spec_u, spec_s in (
        (F.SaturatingAdd, VPADDUS, VPADDS),
        (F.SaturatingSub, VPSUBUS, VPSUBS),
    ):
        for signed, spec in ((False, spec_u), (True, spec_s)):
            T = TVar("T", signed=signed, max_bits=16)
            add(Rule(
                f"x86-{spec.name}-{'s' if signed else 'u'}",
                fpir_cls(Wild("a", T), Wild("b", T)),
                target_op(spec, TVar("T"), Wild("a", T), Wild("b", T)),
            ))

    # rounding_halving_add (unsigned 8/16 only: vpavgb/vpavgw)
    T = TVar("T", signed=False, max_bits=16)
    add(Rule(
        "x86-vpavg",
        F.RoundingHalvingAdd(Wild("a", T), Wild("b", T)),
        target_op(VPAVG, TVar("T"), Wild("a", T), Wild("b", T)),
    ))

    # abs (signed 8/16/32)
    T = TVar("T", signed=True, max_bits=32)
    add(Rule(
        "x86-vpabs",
        F.Abs(Wild("a", T)),
        target_op(VPABS, TWithSign(TVar("T"), False), Wild("a", T)),
    ))

    # -------- packs: saturating narrows -------------------------------
    # signed -> signed: vpacksswb / vpackssdw
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "x86-vpackss",
        F.SaturatingNarrow(Wild("a", T)),
        target_op(VPACKSS, TNarrow(T), Wild("a", T)),
    ))
    # signed -> unsigned narrow: vpackuswb / vpackusdw (native semantics)
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "x86-vpackus",
        F.SaturatingCast(TWithSign(TNarrow(T), False), Wild("a", T)),
        target_op(VPACKUS, TWithSign(TNarrow(T), False), Wild("a", T)),
    ))
    # PREDICATED (§3.3): unsigned input usable iff provably <= INTn_MAX,
    # because the pack interprets its input as signed.
    add(shared.predicated_narrow("x86-vpackus-predicated", VPACKUS))

    # -------- compound lowerings (the [17] bit-tricks) -----------------
    # shared.py holds the ones WASM and PowerPC use too (§3.1.1)
    add(shared.halving_add_magic("x86"))

    # halving_sub: (x >> 1) - (y >> 1) - (~x & y & 1)
    T = TVar("T", max_bits=64)
    x, y = Wild("x", T), Wild("y", T)
    one = PConst(TVar("T"), 1)
    add(Rule(
        "x86-halving-sub-magic",
        F.HalvingSub(x, y),
        E.Sub(
            E.Sub(E.Shr(x, one), E.Shr(y, one)),
            E.BitAnd(
                E.BitAnd(E.BitXor(x, PConst(TVar("T"), -1)), y), one
            ),
        ),
    ))

    add(shared.absd_unsigned("x86"))
    add(shared.absd_maxmin("x86"))
    add(shared.rounding_shr_addshift("x86"))
    add(shared.rounding_shr_magic("x86"))

    # rounding_shr by zero is the identity.
    T = TVar("T", max_bits=64)
    add(Rule(
        "x86-rounding-shr-zero",
        F.RoundingShr(Wild("x", T), PConst(TVar("S", max_bits=64), 0)),
        Wild("x", T),
    ))

    return rules


LOWERING_RULES: List[Rule] = _rules()
