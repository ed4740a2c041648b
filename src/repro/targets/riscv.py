"""RISC-V Vector (RVV 1.0, VLEN=512) backend (paper §8, §8.2).

§8: FPIR was adopted by Halide's "experimental RISC-V backend".  RVV is
the richest fixed-point vector ISA of all:

* ``vaadd[u]``/``vasub[u]`` — averaging add/sub with a CSR-selected
  rounding mode, covering both ``halving_add`` (rdn) and
  ``rounding_halving_add`` (rnu) in one instruction class;
* ``vsadd[u]``/``vssub[u]`` — saturating add/sub at every width;
* ``vsmul`` — the Q(n-1) rounding saturating multiply, i.e.
  ``rounding_mul_shr(x, y, bits-1)``;
* ``vssrl``/``vssra`` — scaling (rounding) shifts: ``rounding_shr``;
* ``vnclip[u]`` — narrowing clip: ``saturating_narrow(rounding_shr(x, c))``
  fused in one instruction;
* full widening arithmetic (``vwadd[u]``, ``vwsub[u]``, ``vwmul[su]``,
  and the ``.wv`` extending forms).

§8.2's caveat is honoured: RVV also offers round-to-even (rne) and
round-to-odd (rod) modes, which FPIR deliberately does not model ("these
additional modes are rarely used in practice in portable code because no
other architectures support them") — so this backend only ever programs
``rnu``/``rdn``, and no FPIR extension is needed.
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

DESC = TargetDesc(name="riscv-rvv", register_bits=512, max_elem_bits=64)

_GENERIC_COSTS = {
    "add": 1.0,
    "sub": 1.0,
    "mul": lambda bits: 1.0 if bits <= 32 else 2.0,
    "div": 18.0,  # vdiv exists but is slow
    "mod": 18.0,
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
    "select": 1.0,  # vmerge
    "widen_u": 1.0,  # vzext / vwaddu.vx 0
    "widen_s": 1.0,
    "narrow": 1.0,  # vnsrl
    "reinterpret": 0.0,
}

_EEW = {8: "e8", 16: "e16", 32: "e32", 64: "e64"}


def _mnemonic(kind: str, t: ScalarType) -> str:
    base = {
        "add": "vadd", "sub": "vsub", "mul": "vmul", "div": "vdiv",
        "mod": "vrem", "min": "vminu", "max": "vmaxu", "and": "vand",
        "or": "vor", "xor": "vxor", "shl": "vsll", "shr": "vsrl",
        "neg": "vneg", "not": "vnot", "cmp": "vmsltu",
        "select": "vmerge", "widen_u": "vzext", "widen_s": "vsext",
        "narrow": "vnsrl", "reinterpret": "vmv",
    }[kind]
    if isinstance(t, ScalarType) and t.signed:
        base = {"vminu": "vmin", "vmaxu": "vmax", "vsrl": "vsra",
                "vmsltu": "vmslt"}.get(base, base)
    eew = _EEW.get(t.bits if isinstance(t, ScalarType) else 8, "e8")
    return f"{base}.{eew}"


GENERIC = GenericMapper(DESC, _GENERIC_COSTS, _mnemonic)


# ----------------------------------------------------------------------
# Instruction specs
# ----------------------------------------------------------------------
#: averaging adds: one instruction, two FPIR ops, selected by vxrm
VAADD_RDN = DESC.spec("vaadd[rdn]", 1.0, lambda a, b: F.HalvingAdd(a, b))
VAADD_RNU = DESC.spec(
    "vaadd[rnu]", 1.0, lambda a, b: F.RoundingHalvingAdd(a, b)
)
VASUB_RDN = DESC.spec("vasub[rdn]", 1.0, lambda a, b: F.HalvingSub(a, b))
VSADD = DESC.spec("vsadd", 1.0, lambda a, b: F.SaturatingAdd(a, b))
VSSUB = DESC.spec("vssub", 1.0, lambda a, b: F.SaturatingSub(a, b))
VSMUL = DESC.spec(
    "vsmul", 1.0,
    lambda a, b: F.RoundingMulShr(a, b, E.Const(a.type, a.type.bits - 1)),
)
VSSRX_RNU = DESC.spec("vssr[rnu]", 1.0, lambda a, b: F.RoundingShr(a, b))
VNCLIP = DESC.spec(
    "vnclip[rnu]", 1.0,
    lambda a, b: F.SaturatingNarrow(F.RoundingShr(a, b)),
    elem_bits=8,
)
VWADD = DESC.spec("vwadd", 1.0, lambda a, b: F.WideningAdd(a, b))
VWSUB = DESC.spec("vwsub", 1.0, lambda a, b: F.WideningSub(a, b))
VWMUL = DESC.spec("vwmul", 1.0, lambda a, b: F.WideningMul(a, b))
VWADD_W = DESC.spec("vwadd.w", 1.0, lambda a, b: F.ExtendingAdd(a, b))
VWSUB_W = DESC.spec("vwsub.w", 1.0, lambda a, b: F.ExtendingSub(a, b))
VWMACC = DESC.spec(
    "vwmacc", 1.0, lambda acc, a, b: E.Add(acc, F.WideningMul(a, b))
)


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------
def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # fused widening multiply-accumulate
    for signed in (False, True):
        T = TVar("T", signed=signed, max_bits=32)
        acc_t = TWithSign(TWiden(T), signed)
        for swapped in (False, True):
            acc = Wild("acc", acc_t)
            prod = F.WideningMul(Wild("a", T), Wild("b", T))
            lhs = E.Add(prod, acc) if swapped else E.Add(acc, prod)
            add(Rule(
                f"rvv-vwmacc-{'s' if signed else 'u'}"
                + ("-swapped" if swapped else ""),
                lhs,
                target_op(
                    VWMACC, acc_t,
                    Wild("acc", acc_t), Wild("a", T), Wild("b", T),
                ),
            ))

    # fused narrowing clip: saturating_narrow(rounding_shr(x, c))
    for signed in (True, False):
        T = TVar("T", signed=signed, min_bits=16, max_bits=64)
        add(Rule(
            f"rvv-vnclip-{'s' if signed else 'u'}",
            F.SaturatingNarrow(
                F.RoundingShr(Wild("x", T), ConstWild("c0", T))
            ),
            target_op(
                VNCLIP, TNarrow(T), Wild("x", T), ConstWild("c0", T)
            ),
            predicate=lambda m, ctx: 0 <= m.consts["c0"] < m.tenv["T"].bits,
        ))

    # vsmul: rounding_mul_shr(x, y, bits-1), signed only
    for t_bits in (8, 16, 32):
        add(shared.q_format_mul(f"rvv-vsmul-{t_bits}", VSMUL, t_bits))

    # averaging adds/subs — BOTH rounding modes are native (§8.2)
    for fpir_cls, spec in (
        (F.HalvingAdd, VAADD_RDN),
        (F.RoundingHalvingAdd, VAADD_RNU),
        (F.HalvingSub, VASUB_RDN),
    ):
        T = TVar("T", max_bits=64)
        add(Rule(
            f"rvv-{spec.name}",
            fpir_cls(Wild("a", T), Wild("b", T)),
            target_op(spec, TVar("T"), Wild("a", T), Wild("b", T)),
        ))

    # saturating add/sub at every width
    for fpir_cls, spec in (
        (F.SaturatingAdd, VSADD), (F.SaturatingSub, VSSUB),
    ):
        T = TVar("T", max_bits=64)
        add(Rule(
            f"rvv-{spec.name}",
            fpir_cls(Wild("a", T), Wild("b", T)),
            target_op(spec, TVar("T"), Wild("a", T), Wild("b", T)),
        ))

    # scaling shift: rounding_shr at the same width
    T = TVar("T", max_bits=64)
    S = TVar("S", max_bits=64)
    add(Rule(
        "rvv-vssr",
        F.RoundingShr(Wild("a", T), Wild("b", S)),
        target_op(VSSRX_RNU, TVar("T"), Wild("a", T), Wild("b", S)),
        predicate=lambda m, ctx: m.tenv["T"].bits == m.tenv["S"].bits,
    ))

    # widening arithmetic
    for signed in (False, True):
        T = TVar("T", signed=signed, max_bits=32)
        wide = TWiden(T)
        tag = "s" if signed else "u"
        add(Rule(
            f"rvv-vwadd-{tag}",
            F.WideningAdd(Wild("a", T), Wild("b", T)),
            target_op(VWADD, wide, Wild("a", T), Wild("b", T)),
        ))
        add(Rule(
            f"rvv-vwsub-{tag}",
            F.WideningSub(Wild("a", T), Wild("b", T)),
            target_op(
                VWSUB, TWithSign(TWiden(T), True), Wild("a", T),
                Wild("b", T),
            ),
        ))
        add(Rule(
            f"rvv-vwmul-{tag}",
            F.WideningMul(Wild("a", T), Wild("b", T)),
            target_op(VWMUL, wide, Wild("a", T), Wild("b", T)),
        ))
        add(Rule(
            f"rvv-vwadd-w-{tag}",
            F.ExtendingAdd(Wild("a", wide), Wild("b", T)),
            target_op(VWADD_W, wide, Wild("a", wide), Wild("b", T)),
        ))
        add(Rule(
            f"rvv-vwsub-w-{tag}",
            F.ExtendingSub(Wild("a", wide), Wild("b", T)),
            target_op(VWSUB_W, wide, Wild("a", wide), Wild("b", T)),
        ))

    # mixed-sign widening multiply: vwmulsu (signed x unsigned)
    Ts = TVar("T", signed=True, max_bits=32)
    Tu = TVar("U", signed=False, max_bits=32)
    add(Rule(
        "rvv-vwmulsu",
        F.WideningMul(Wild("a", Ts), Wild("b", Tu)),
        target_op(
            VWMUL, TWithSign(TWiden(Ts), True), Wild("a", Ts),
            Wild("b", Tu),
        ),
        predicate=lambda m, ctx: m.tenv["T"].bits == m.tenv["U"].bits,
    ))

    # absd: no single instruction; max-min compound (like x86)
    add(shared.absd_maxmin("rvv"))

    return rules


LOWERING_RULES: List[Rule] = _rules()
