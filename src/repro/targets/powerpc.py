"""PowerPC VSX/VMX (128-bit) backend (paper §8, §8.1).

§8.1: "PowerPC is similar to x86" — it has the classic Altivec fixed-point
set (saturating add/sub at 8/16/32 bits, ``vavgub``-style *rounding*
averages, min/max everywhere) but no halving add, no absolute difference
and no rounding shifts, so it shares the x86/WebAssembly compound
bit-trick lowerings (§3.1.1: "x86, WebAssembly, and PowerPC do not support
halving_add, and therefore share PITCHFORK's fast non-widening
implementation"): it calls their builders in :mod:`repro.targets.shared`.
Bringing it up required, as the paper says of the real port, no FPIR
extensions — only this rule file.
"""

from __future__ import annotations

from typing import List

from ..fpir import ops as F
from ..ir import expr as E
from ..ir.types import ScalarType
from ..trs.pattern import TNarrow, TVar, TWiden, TWithSign, Wild
from ..trs.rule import Rule
from . import shared
from .generic import GenericMapper
from .isa import TargetDesc, target_op

__all__ = ["DESC", "GENERIC", "LOWERING_RULES"]

DESC = TargetDesc(name="powerpc-vsx", register_bits=128, max_elem_bits=64)

_GENERIC_COSTS = {
    "add": 1.0,
    "sub": 1.0,
    "mul": lambda bits: {8: 2.0, 16: 1.0, 32: 1.0, 64: 4.0}[bits],
    "div": 26.0,
    "mod": 28.0,
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
    "select": 1.0,  # vsel
    "widen_u": 1.0,  # vupkhsb-style / vmrg + zero
    "widen_s": 1.0,
    "narrow": 1.0,  # vpkuhum (modulo pack)
    "reinterpret": 0.0,
}

_SUFFIX = {8: "ub", 16: "uh", 32: "uw", 64: "ud"}


def _mnemonic(kind: str, t: ScalarType) -> str:
    base = {
        "add": "vaddu", "sub": "vsubu", "mul": "vmulu", "div": "vdiv*",
        "mod": "vmod*", "min": "vminu", "max": "vmaxu", "and": "vand",
        "or": "vor", "xor": "vxor", "shl": "vsl", "shr": "vsr",
        "neg": "vneg", "not": "vnor", "cmp": "vcmpgtu",
        "select": "vsel", "widen_u": "vupku", "widen_s": "vupks",
        "narrow": "vpkum", "reinterpret": "vmr",
    }[kind]
    suffix = _SUFFIX.get(t.bits if isinstance(t, ScalarType) else 8, "ub")
    if isinstance(t, ScalarType) and t.signed:
        base = base.replace("u", "s", 1) if base.endswith("u") else base
        suffix = suffix.replace("u", "s")
    if kind in ("and", "or", "xor", "select", "not", "reinterpret"):
        return base
    return base + suffix[-2:]


GENERIC = GenericMapper(DESC, _GENERIC_COSTS, _mnemonic)


VADDS = DESC.spec("vaddsbs", 1.0, lambda a, b: F.SaturatingAdd(a, b))
VSUBS = DESC.spec("vsubsbs", 1.0, lambda a, b: F.SaturatingSub(a, b))
VAVG = DESC.spec("vavgub", 1.0, lambda a, b: F.RoundingHalvingAdd(a, b))
VPKS = DESC.spec(
    "vpks", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8,
    swizzle=True,
)


def _vpksus_semantics(a: E.Expr) -> E.Expr:
    t = a.type
    as_signed = a if t.signed else E.Reinterpret(t.with_signed(True), a)
    return F.SaturatingCast(t.narrow().with_signed(False), as_signed)


VPKSUS = DESC.spec("vpksus", 1.0, _vpksus_semantics, elem_bits=8, swizzle=True)
VMSUMU = DESC.spec(
    "vmsumubm", 1.0,
    lambda acc, a, b: F.ExtendingAdd(acc, F.WideningMul(a, b)),
)


def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # fused: vmsum (multiply-sum with wide accumulator)
    T = TVar("T", signed=False, max_bits=8)
    acc_t = TWiden(TWiden(T))
    add(Rule(
        "ppc-vmsum",
        F.ExtendingAdd(
            Wild("acc", acc_t),
            F.WideningMul(Wild("a", T), Wild("b", T)),
        ),
        target_op(
            VMSUMU, acc_t, Wild("acc", acc_t), Wild("a", T), Wild("b", T)
        ),
    ))

    # direct: saturating arithmetic + rounding average
    for fpir_cls, spec in (
        (F.SaturatingAdd, VADDS), (F.SaturatingSub, VSUBS),
    ):
        T = TVar("T", max_bits=32)
        add(Rule(
            f"ppc-{spec.name}",
            fpir_cls(Wild("a", T), Wild("b", T)),
            target_op(spec, TVar("T"), Wild("a", T), Wild("b", T)),
        ))
    T = TVar("T", signed=False, max_bits=32)
    add(Rule(
        "ppc-vavg",
        F.RoundingHalvingAdd(Wild("a", T), Wild("b", T)),
        target_op(VAVG, TVar("T"), Wild("a", T), Wild("b", T)),
    ))

    # saturating narrows
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "ppc-vpks",
        F.SaturatingNarrow(Wild("a", T)),
        target_op(VPKS, TNarrow(T), Wild("a", T)),
    ))
    T = TVar("T", signed=True, min_bits=16, max_bits=32)
    add(Rule(
        "ppc-vpksus",
        F.SaturatingCast(TWithSign(TNarrow(T), False), Wild("a", T)),
        target_op(VPKSUS, TWithSign(TNarrow(T), False), Wild("a", T)),
    ))
    add(shared.predicated_narrow("ppc-vpksus-predicated", VPKSUS))

    # compound lowerings shared with x86/WASM (§3.1.1)
    add(shared.halving_add_magic("ppc"))
    add(shared.absd_maxmin("ppc"))
    add(shared.rounding_shr_addshift("ppc"))
    add(shared.rounding_shr_magic("ppc"))

    return rules


LOWERING_RULES: List[Rule] = _rules()
