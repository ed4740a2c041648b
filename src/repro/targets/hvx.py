"""Hexagon HVX (1024-bit) backend: instruction specs + lowering TRS.

HVX is the richest fixed-point ISA of the three (it is a DSP), but its
performance is "highly dependent on swizzling patterns" (§6): its widening
and narrowing instructions produce/consume *vector pairs* in even/odd
element order, so narrowing and interleaving carry an extra data-movement
cost.  We model that as a +0.5 swizzle surcharge on narrowing/packing
specs (``swizzle=True``); the Rake oracle, which co-optimizes swizzles,
discounts most of it — reproducing the §5 PITCHFORK-vs-Rake HVX gap.

HVX has no 64-bit lanes: ``max_elem_bits=32``, so 64-bit residual ops make
the generic mapper raise, exactly as "HVX does not support [64-bit types]
and LLVM fails to compile" (§5.1).
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

__all__ = ["DESC", "GENERIC", "LOWERING_RULES", "RAKE_EXTRA_RULES"]

DESC = TargetDesc(name="hexagon-hvx", register_bits=1024, max_elem_bits=32)

_GENERIC_COSTS = {
    "add": 1.0,
    "sub": 1.0,
    "mul": lambda bits: 1.0 if bits <= 16 else 2.0,
    "div": 32.0,
    "mod": 34.0,
    "min": 1.0,
    "max": 1.0,
    "and": 1.0,
    "or": 1.0,
    "xor": 1.0,
    "shl": 1.0,
    "shr": 1.0,
    "neg": 1.0,
    "not": 1.0,
    "cmp": 1.0,  # vcmp into a predicate register
    "select": 1.0,  # vmux
    "widen_u": 1.0,  # vzxt
    "widen_s": 1.0,  # vsxt
    "narrow": 1.5,  # vpacke/vshuffe + deal swizzle
    "reinterpret": 0.0,
}

_SUFFIX = {8: "b", 16: "h", 32: "w"}


def _mnemonic(kind: str, t: ScalarType) -> str:
    base = {
        "add": "vadd",
        "sub": "vsub",
        "mul": "vmpyi",
        "div": "vdiv*",
        "mod": "vmod*",
        "min": "vmin",
        "max": "vmax",
        "and": "vand",
        "or": "vor",
        "xor": "vxor",
        "shl": "vasl",
        "shr": "vasr",
        "neg": "vneg",
        "not": "vnot",
        "cmp": "vcmp.gt",
        "select": "vmux",
        "widen_u": "vzxt",
        "widen_s": "vsxt",
        "narrow": "vpacke",
        "reinterpret": "vmov",
    }[kind]
    bits = t.bits if isinstance(t, ScalarType) else 8
    suffix = _SUFFIX.get(bits, "b")
    if isinstance(t, ScalarType) and not t.signed:
        suffix = "u" + suffix
    return f"{base}.{suffix}"


GENERIC = GenericMapper(DESC, _GENERIC_COSTS, _mnemonic)


# ----------------------------------------------------------------------
# Instruction specs
# ----------------------------------------------------------------------
VADD_W = DESC.spec("vadd:w", 1.0, lambda a, b: F.WideningAdd(a, b))
VSUB_W = DESC.spec("vsub:w", 1.0, lambda a, b: F.WideningSub(a, b))
VMPY = DESC.spec("vmpy", 1.0, lambda a, b: F.WideningMul(a, b),
             swizzle=True)
VMPY_CONST = DESC.spec("vmpy:c", 1.0, lambda a, b: F.WideningMul(a, b),
                   swizzle=True)
VABSDIFF = DESC.spec("vabsdiff", 1.0, lambda a, b: F.Absd(a, b))
VADD_SAT = DESC.spec("vadd:sat", 1.0, lambda a, b: F.SaturatingAdd(a, b))
VSUB_SAT = DESC.spec("vsub:sat", 1.0, lambda a, b: F.SaturatingSub(a, b))
VAVG = DESC.spec("vavg", 1.0, lambda a, b: F.HalvingAdd(a, b))
VAVG_RND = DESC.spec("vavg:rnd", 1.0, lambda a, b: F.RoundingHalvingAdd(a, b))
VNAVG = DESC.spec("vnavg", 1.0, lambda a, b: F.HalvingSub(a, b))
VASL_SAT = DESC.spec("vasl:sat", 1.0, lambda a, b: F.SaturatingShl(a, b))


def _vsat_semantics(a: E.Expr) -> E.Expr:
    """vsat/vpack:sat interpret their input as SIGNED (like x86's packs),
    hence the §3.3 bounds predicate for unsigned inputs."""
    t = a.type
    as_signed = a if t.signed else E.Reinterpret(t.with_signed(True), a)
    return F.SaturatingCast(t.narrow().with_signed(False), as_signed)


VSAT = DESC.spec("vsat", 1.0, _vsat_semantics, elem_bits=8, swizzle=True)
VPACK_SAT = DESC.spec(
    "vpack:sat", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8,
    swizzle=True,
)
VASR_RND = DESC.spec("vasr:rnd", 1.0, lambda a, b: F.RoundingShr(a, b))
VASR_RND_SAT = DESC.spec(
    "vasr:rnd:sat",
    1.0,
    lambda a, b: F.SaturatingNarrow(F.RoundingShr(a, b)),
    elem_bits=8,
    swizzle=True,
)
VMPYH_RS = DESC.spec(
    "vmpy:rnd:sat", 1.0,
    lambda a, b: F.RoundingMulShr(a, b, E.Const(a.type, a.type.bits - 1)),
    swizzle=True,  # odd-lane results need a deal before lane-order use
)
VMPA = DESC.spec(
    "vmpa",
    1.0,
    lambda a, b, m1, m2: E.Add(
        F.WideningMul(a, m1), F.WideningMul(b, m2)
    ),
)
VMPA_ACC = DESC.spec(
    "vmpa.acc",
    1.0,
    lambda acc, a, b, m1, m2: E.Add(
        acc, E.Add(F.WideningMul(a, m1), F.WideningMul(b, m2))
    ),
)
VMPY_ACC = DESC.spec(
    "vmpy.acc", 1.0, lambda acc, a, b: E.Add(acc, F.WideningMul(a, b))
)
VZXT = DESC.spec("vzxt", 1.0, lambda a: E.Cast(a.type.widen(), a))
VRMPY = DESC.spec(
    "vrmpy", 1.0,
    lambda acc, a, b: F.ExtendingAdd(acc, F.WideningMul(a, b)),
)
VDMPY = DESC.spec(
    "vdmpy", 1.0,
    lambda a, b, c, d: E.Add(F.WideningMul(a, b), F.WideningMul(c, d)),
)


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------
def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # -------- fused multiply-accumulate (§5.3.2: synthesized) ----------
    # widening_add(x, z) + widening_shl(y, c0)
    #   -> vmpa.acc(vzxt(x), y, z, 1 << c0, 1)        (Fig. 3a)
    T = TVar("T", signed=False, max_bits=16)
    wide = TWiden(T)
    for swapped in (False, True):
        wadd = F.WideningAdd(Wild("x", T), Wild("z", T))
        wshl = F.WideningShl(Wild("y", T), ConstWild("c0", T))
        lhs = E.Add(wshl, wadd) if swapped else E.Add(wadd, wshl)
        widen_x = target_op(VZXT, wide, Wild("x", T))
        add(Rule(
            "hvx-vmpa-acc" + ("-swapped" if swapped else ""),
            lhs,
            target_op(
                VMPA_ACC,
                wide,
                widen_x,
                Wild("y", T),
                Wild("z", T),
                PConst(TVar("T"), lambda c: 1 << c["c0"]),
                PConst(TVar("T"), 1),
            ),
            predicate=lambda m, ctx: 0
            <= m.consts["c0"]
            < m.tenv["T"].bits - 1,
            source="synth:add,synth:sobel3x3,synth:gaussian3x3",
        ))

    # widening_shl(x, c1) + widening_shl(y, c2) -> vmpa(x, y, 2^c1, 2^c2)
    # (§5.3.2: the synthesized fused MAC that the add benchmark needs)
    T = TVar("T", signed=False, max_bits=16)
    add(Rule(
        "hvx-vmpa-two-shls",
        E.Add(
            F.WideningShl(Wild("x", T), ConstWild("c1", T)),
            F.WideningShl(Wild("y", T), ConstWild("c2", T)),
        ),
        target_op(
            VMPA,
            TWiden(T),
            Wild("x", T),
            Wild("y", T),
            PConst(TVar("T"), lambda c: 1 << c["c1"]),
            PConst(TVar("T"), lambda c: 1 << c["c2"]),
        ),
        predicate=lambda m, ctx: 0 <= m.consts["c1"] < m.tenv["T"].bits - 1
        and 0 <= m.consts["c2"] < m.tenv["T"].bits - 1,
        source="synth:add,synth:gaussian5x5",
    ))

    # two-step widening accumulate -> vrmpy (dot-product class)
    T = TVar("T", signed=False, max_bits=8)
    acc_t = TWiden(TWiden(T))
    add(Rule(
        "hvx-vrmpy",
        F.ExtendingAdd(
            Wild("acc", acc_t),
            F.WideningMul(Wild("a", T), Wild("b", T)),
        ),
        target_op(
            VRMPY, acc_t, Wild("acc", acc_t), Wild("a", T), Wild("b", T)
        ),
    ))

    # paired products -> vdmpy
    T = TVar("T", signed=True, min_bits=16, max_bits=16)
    add(Rule(
        "hvx-vdmpy",
        E.Add(
            F.WideningMul(Wild("a", T), Wild("b", T)),
            F.WideningMul(Wild("c", T), Wild("d", T)),
        ),
        target_op(
            VDMPY, TWiden(T),
            Wild("a", T), Wild("b", T), Wild("c", T), Wild("d", T),
        ),
    ))

    # acc + widening_mul(a, b) -> vmpy.acc   (synthesized MAC, §5.3.2)
    for signed in (False, True):
        T = TVar("T", signed=signed, max_bits=16)
        acc_t = TWithSign(TWiden(T), signed)
        for swapped in (False, True):
            acc = Wild("acc", acc_t)
            prod = F.WideningMul(Wild("a", T), Wild("b", T))
            lhs = E.Add(prod, acc) if swapped else E.Add(acc, prod)
            add(Rule(
                f"hvx-vmpy-acc-{'s' if signed else 'u'}"
                + ("-swapped" if swapped else ""),
                lhs,
                target_op(
                    VMPY_ACC, acc_t,
                    Wild("acc", acc_t), Wild("a", T), Wild("b", T),
                ),
                source="synth:add,synth:average_pool",
            ))

    # -------- fused saturate-shift (§5.3.2: synthesized) ---------------
    # saturating_narrow(rounding_shr(x, c0)) -> vasr:rnd:sat
    for signed in (True, False):
        T = TVar("T", signed=signed, min_bits=16, max_bits=32)
        add(Rule(
            f"hvx-vasr-rnd-sat-{'s' if signed else 'u'}",
            F.SaturatingNarrow(
                F.RoundingShr(Wild("x", T), ConstWild("c0", T))
            ),
            target_op(
                VASR_RND_SAT, TNarrow(T), Wild("x", T), ConstWild("c0", T)
            ),
            predicate=lambda m, ctx: 0 < m.consts["c0"] < m.tenv["T"].bits,
            source="synth:camera_pipe,synth:softmax",
        ))

    # truncating narrow of a rounding shift, provably exact -> the same
    # fused vasr (saturation can never trigger inside the proven bounds).
    T = TVar("T", min_bits=16, max_bits=32)
    add(Rule(
        "hvx-vasr-rnd-sat-trunc",
        E.Cast(
            TNarrow(T),
            F.RoundingShr(Wild("x", T), ConstWild("c0", T)),
        ),
        target_op(
            VASR_RND_SAT, TNarrow(T), Wild("x", T), ConstWild("c0", T)
        ),
        predicate=_trunc_narrow_exact,
        source="synth:gaussian3x3,synth:average_pool,synth:mean",
    ))

    # rounding_shr by a constant -> vasr:rnd  (synthesized)
    T = TVar("T", max_bits=32)
    S = TVar("S", max_bits=32)
    add(Rule(
        "hvx-vasr-rnd",
        F.RoundingShr(Wild("x", T), ConstWild("c0", S)),
        target_op(VASR_RND, TVar("T"), Wild("x", T), ConstWild("c0", S)),
        predicate=lambda m, ctx: m.tenv["T"].bits == m.tenv["S"].bits
        and 0 <= m.consts["c0"] < m.tenv["T"].bits,
        source="synth:camera_pipe,synth:gaussian3x3",
    ))

    # hand fallback for rounding_shr: bias-add + shift when bounds allow
    # (keeps the hand-only configuration from widening, like the paper's
    # baseline lowerings [17])
    add(shared.rounding_shr_addshift("hvx", max_bits=32))

    # -------- specific constants ---------------------------------------
    for t_bits in (16, 32):
        add(shared.q_format_mul(f"hvx-vmpy-rnd-sat-{t_bits}", VMPYH_RS,
                                t_bits))

    # widening_mul by a broadcast constant -> vmpy:c, which needs its
    # operand swizzled into pair order (the §5.3.2 gaussian7x7 story).
    T = TVar("T", max_bits=16)
    add(Rule(
        "hvx-vmpy-const",
        F.WideningMul(Wild("a", T), ConstWild("c0", T)),
        target_op(
            VMPY_CONST, TWiden(T), Wild("a", T), ConstWild("c0", T)
        ),
    ))

    # -------- direct mappings ------------------------------------------
    for signed in (False, True):
        T = TVar("T", signed=signed, max_bits=16)
        wide = TWiden(T)
        add(Rule(
            f"hvx-vadd-w-{'s' if signed else 'u'}",
            F.WideningAdd(Wild("a", T), Wild("b", T)),
            target_op(VADD_W, wide, Wild("a", T), Wild("b", T)),
        ))
        add(Rule(
            f"hvx-vsub-w-{'s' if signed else 'u'}",
            F.WideningSub(Wild("a", T), Wild("b", T)),
            target_op(
                VSUB_W, TWithSign(TWiden(T), True), Wild("a", T),
                Wild("b", T),
            ),
        ))
        add(Rule(
            f"hvx-vmpy-{'s' if signed else 'u'}",
            F.WideningMul(Wild("a", T), Wild("b", T)),
            target_op(VMPY, wide, Wild("a", T), Wild("b", T)),
        ))

    for fpir_cls, spec in (
        (F.Absd, VABSDIFF),
        (F.SaturatingAdd, VADD_SAT),
        (F.SaturatingSub, VSUB_SAT),
        (F.HalvingAdd, VAVG),
        (F.RoundingHalvingAdd, VAVG_RND),
        (F.HalvingSub, VNAVG),
    ):
        T = TVar("T", max_bits=32)
        out = (
            TWithSign(TVar("T"), False)
            if fpir_cls is F.Absd
            else TVar("T")
        )
        add(Rule(
            f"hvx-{spec.name}",
            fpir_cls(Wild("a", T), Wild("b", T)),
            target_op(spec, out, Wild("a", T), Wild("b", T)),
        ))

    # saturating_shl -> vasl:sat
    T = TVar("T", max_bits=32)
    S = TVar("S", max_bits=32)
    add(Rule(
        "hvx-vasl-sat",
        F.SaturatingShl(Wild("a", T), Wild("b", S)),
        target_op(VASL_SAT, TVar("T"), Wild("a", T), Wild("b", S)),
        predicate=lambda m, ctx: m.tenv["T"].bits == m.tenv["S"].bits,
    ))

    # saturating narrows: signed input -> vsat; unsigned predicated
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "hvx-vsat-signed-to-unsigned",
        F.SaturatingCast(TWithSign(TNarrow(T), False), Wild("a", T)),
        target_op(VSAT, TWithSign(TNarrow(T), False), Wild("a", T)),
    ))
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "hvx-vpack-sat",
        F.SaturatingNarrow(Wild("a", T)),
        target_op(VPACK_SAT, TNarrow(T), Wild("a", T)),
    ))
    # PREDICATED (§3.3 / Fig. 3c): sat_cast<u8>(x_u16) -> vsat(x)
    #   [upper_bounded(x, INT16_MAX)]
    add(shared.predicated_narrow("hvx-vsat-predicated", VSAT))

    return rules


def _trunc_narrow_exact(m, ctx) -> bool:
    t = m.tenv["T"]
    c = m.consts["c0"]
    if not (0 < c < t.bits):
        return False
    n = t.narrow()
    shifted = F.RoundingShr(m.env["x"], E.Const(t, c))
    return ctx.upper_bounded(shifted, n.max_value) and ctx.lower_bounded(
        shifted, max(n.min_value, 0)
    )


LOWERING_RULES: List[Rule] = _rules()


def _rake_extra() -> List[Rule]:
    """Swizzle co-optimization stand-ins: Rake restructures data layout so
    narrowing packs do not need separate shuffles (§5.3.2, §6)."""
    rules: List[Rule] = []
    vsat_ns = DESC.spec("vsat~", 1.0, _vsat_semantics, elem_bits=8)
    vpack_ns = DESC.spec(
        "vpack:sat~", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8
    )
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    rules.append(Rule(
        "rake-hvx-vpack-noswizzle",
        F.SaturatingNarrow(Wild("a", T)),
        target_op(vpack_ns, TNarrow(T), Wild("a", T)),
        source="rake",
    ))
    rules.append(shared.predicated_narrow(
        "rake-hvx-vsat-noswizzle", vsat_ns, source="rake",
    ))
    return rules


RAKE_EXTRA_RULES: List[Rule] = _rake_extra()
