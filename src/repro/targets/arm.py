"""ARM Neon (AArch64, 128-bit) backend: instruction specs + lowering TRS.

Costs are reciprocal throughputs typical of recent big cores (the paper
measured on an Apple M1 Pro): almost every Neon vector instruction issues
at least once per cycle, so relative instruction *count* dominates — which
is the regime the paper's speedups live in.

The rule set follows §3.3's five classes: direct mappings (uaddl, uabd,
uqxtn, ...), fused mappings (umlal, udot), compound lowerings for the few
FPIR ops Neon lacks, predicated rules (rshrn with a bounds proof), and
specific-constant rules (sqrdmulh for rounding_mul_shr(x, y, bits-1)).
Rules tagged ``synth:<bench>`` reproduce §5.3.1's synthesized ARM rules.
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

DESC = TargetDesc(name="arm-neon", register_bits=128, max_elem_bits=64)

# ----------------------------------------------------------------------
# Generic (residual) core-op costs
# ----------------------------------------------------------------------
_GENERIC_COSTS = {
    "add": 1.0,
    "sub": 1.0,
    "mul": lambda bits: 1.0 if bits <= 32 else 6.0,  # 64-bit: scalarized umulh sequence
    "div": 20.0,  # scalarized
    "mod": 22.0,
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
    "select": 1.0,  # bsl
    "widen_u": 1.0,  # uxtl / ushll #0
    "widen_s": 1.0,  # sxtl
    "narrow": 1.0,  # xtn / uzp1
    "reinterpret": 0.0,
}

_MNEMONIC = {
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "div": "sdiv*",
    "mod": "smod*",
    "min": "umin",
    "max": "umax",
    "and": "and",
    "or": "orr",
    "xor": "eor",
    "shl": "shl",
    "shr": "sshr",
    "neg": "neg",
    "not": "not",
    "cmp": "cmhi",
    "select": "bsl",
    "widen_u": "uxtl",
    "widen_s": "sxtl",
    "narrow": "xtn",
    "reinterpret": "mov",
}


def _mnemonic(kind: str, t: ScalarType) -> str:
    base = _MNEMONIC[kind]
    if kind in ("min", "max", "cmp", "shr") and isinstance(t, ScalarType):
        if t.signed:
            base = {"umin": "smin", "umax": "smax", "cmhi": "cmgt",
                    "sshr": "sshr"}.get(base, base)
        elif base == "sshr":
            base = "ushr"
    lanes = {8: "16b", 16: "8h", 32: "4s", 64: "2d"}.get(
        t.bits if isinstance(t, ScalarType) else 8, "16b"
    )
    return f"{base}.{lanes}"


GENERIC = GenericMapper(DESC, _GENERIC_COSTS, _mnemonic)


# ----------------------------------------------------------------------
# Instruction specs
# ----------------------------------------------------------------------
# Direct FPIR implementations: the instruction means the FPIR op itself.
UADDL = DESC.spec("uaddl", 1.0, lambda a, b: F.WideningAdd(a, b))
SADDL = DESC.spec("saddl", 1.0, lambda a, b: F.WideningAdd(a, b))
UADDW = DESC.spec("uaddw", 1.0, lambda a, b: F.ExtendingAdd(a, b))
SADDW = DESC.spec("saddw", 1.0, lambda a, b: F.ExtendingAdd(a, b))
USUBL = DESC.spec("usubl", 1.0, lambda a, b: F.WideningSub(a, b))
SSUBL = DESC.spec("ssubl", 1.0, lambda a, b: F.WideningSub(a, b))
USUBW = DESC.spec("usubw", 1.0, lambda a, b: F.ExtendingSub(a, b))
UMULL = DESC.spec("umull", 1.0, lambda a, b: F.WideningMul(a, b))
SMULL = DESC.spec("smull", 1.0, lambda a, b: F.WideningMul(a, b))
USHLL = DESC.spec("ushll", 1.0, lambda a, b: F.WideningShl(a, b))
SSHLL = DESC.spec("sshll", 1.0, lambda a, b: F.WideningShl(a, b))
ABS = DESC.spec("abs", 1.0, lambda a: F.Abs(a))
UABD = DESC.spec("uabd", 1.0, lambda a, b: F.Absd(a, b))
SABD = DESC.spec("sabd", 1.0, lambda a, b: F.Absd(a, b))
UQADD = DESC.spec("uqadd", 1.0, lambda a, b: F.SaturatingAdd(a, b))
SQADD = DESC.spec("sqadd", 1.0, lambda a, b: F.SaturatingAdd(a, b))
UQSUB = DESC.spec("uqsub", 1.0, lambda a, b: F.SaturatingSub(a, b))
SQSUB = DESC.spec("sqsub", 1.0, lambda a, b: F.SaturatingSub(a, b))
UHADD = DESC.spec("uhadd", 1.0, lambda a, b: F.HalvingAdd(a, b))
SHADD = DESC.spec("shadd", 1.0, lambda a, b: F.HalvingAdd(a, b))
UHSUB = DESC.spec("uhsub", 1.0, lambda a, b: F.HalvingSub(a, b))
SHSUB = DESC.spec("shsub", 1.0, lambda a, b: F.HalvingSub(a, b))
URHADD = DESC.spec("urhadd", 1.0, lambda a, b: F.RoundingHalvingAdd(a, b))
SRHADD = DESC.spec("srhadd", 1.0, lambda a, b: F.RoundingHalvingAdd(a, b))
UQXTN = DESC.spec(
    "uqxtn", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8
)
SQXTN = DESC.spec(
    "sqxtn", 1.0, lambda a: F.SaturatingNarrow(a), elem_bits=8
)
SQXTUN = DESC.spec(
    "sqxtun",
    1.0,
    lambda a: F.SaturatingCast(a.type.narrow().with_signed(False), a),
    elem_bits=8,
)
URSHL = DESC.spec("urshl", 1.0, lambda a, b: F.RoundingShl(a, b))
SRSHL = DESC.spec("srshl", 1.0, lambda a, b: F.RoundingShl(a, b))
URSHR = DESC.spec("urshr", 1.0, lambda a, b: F.RoundingShr(a, b))
SRSHR = DESC.spec("srshr", 1.0, lambda a, b: F.RoundingShr(a, b))
UQSHL = DESC.spec("uqshl", 1.0, lambda a, b: F.SaturatingShl(a, b))
SQSHL = DESC.spec("sqshl", 1.0, lambda a, b: F.SaturatingShl(a, b))
SQRDMULH = DESC.spec(
    "sqrdmulh",
    1.0,
    lambda a, b: F.RoundingMulShr(
        a, b, E.Const(a.type, a.type.bits - 1)
    ),
)

# Fused instructions
UMLAL = DESC.spec(
    "umlal", 1.0, lambda acc, a, b: E.Add(acc, F.WideningMul(a, b))
)
SMLAL = DESC.spec(
    "smlal", 1.0, lambda acc, a, b: E.Add(acc, F.WideningMul(a, b))
)
UMLSL = DESC.spec(
    "umlsl", 1.0, lambda acc, a, b: E.Sub(acc, F.WideningMul(a, b))
)
UDOT = DESC.spec(
    "udot",
    1.0,
    lambda acc, a, b: F.ExtendingAdd(acc, F.WideningMul(a, b)),
)
SDOT = DESC.spec(
    "sdot",
    1.0,
    lambda acc, a, b: F.ExtendingAdd(acc, F.WideningMul(a, b)),
)
RSHRN = DESC.spec(
    "rshrn",
    1.0,
    lambda a, b: E.Cast(a.type.narrow(), F.RoundingShr(a, b)),
    elem_bits=8,
)
UQRSHRN = DESC.spec(
    "uqrshrn",
    1.0,
    lambda a, b: F.SaturatingNarrow(F.RoundingShr(a, b)),
    elem_bits=8,
)


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------
def _u(max_bits=32) -> TVar:
    return TVar("T", signed=False, max_bits=max_bits)


def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # ---------------- fused mappings (checked before direct) ----------
    # x + widening_mul(y, z) -> umlal/smlal   (hand: §3.3 fused class)
    for signed, spec in ((False, UMLAL), (True, SMLAL)):
        T = TVar("T", signed=signed, max_bits=32)
        acc = Wild("acc", TWithSign(TWiden(T), signed))
        lhs_l = E.Add(acc, F.WideningMul(Wild("y", T), Wild("z", T)))
        lhs_r = E.Add(F.WideningMul(Wild("y", T), Wild("z", T)), acc)
        rhs = target_op(
            spec,
            TWithSign(TWiden(T), signed),
            Wild("acc", TWithSign(TWiden(T), signed)),
            Wild("y", T),
            Wild("z", T),
        )
        add(Rule(f"arm-{spec.name}", lhs_l, rhs))
        add(Rule(f"arm-{spec.name}-swapped", lhs_r, rhs))

    # acc - widening_mul(y, z) -> umlsl
    T = _u()
    add(Rule(
        "arm-umlsl",
        E.Sub(
            Wild("acc", TWiden(T)),
            F.WideningMul(Wild("y", T), Wild("z", T)),
        ),
        target_op(
            UMLSL, TWiden(T), Wild("acc", TWiden(T)), Wild("y", T),
            Wild("z", T),
        ),
    ))

    # x + widening_shl(y, c0) -> umlal(x, y, 1 << c0)   (§4.2 synthesized)
    for signed, spec in ((False, UMLAL), (True, SMLAL)):
        T = TVar("T", signed=signed, max_bits=32)
        acc_t = TWithSign(TWiden(T), signed)
        for swapped in (False, True):
            acc = Wild("acc", acc_t)
            shl = F.WideningShl(Wild("y", T), ConstWild("c0", T))
            lhs = E.Add(shl, acc) if swapped else E.Add(acc, shl)
            add(Rule(
                f"arm-{spec.name}-shl" + ("-swapped" if swapped else ""),
                lhs,
                target_op(
                    spec,
                    acc_t,
                    Wild("acc", acc_t),
                    Wild("y", T),
                    PConst(TVar("T"), lambda c: 1 << c["c0"]),
                ),
                predicate=lambda m, ctx: 0
                <= m.consts["c0"]
                < m.tenv["T"].bits - 1
                and m.tenv["T"].contains(1 << m.consts["c0"]),
                source="synth:add,synth:gaussian3x3",
            ))

    # extending_add(acc, widening_mul(a, b)) -> udot/sdot
    # (two-step widening accumulate: the dot-product instruction class)
    for signed, spec in ((False, UDOT), (True, SDOT)):
        T = TVar("T", signed=signed, max_bits=16)
        acc_t = TWithSign(TWiden(TWiden(T)), signed)
        add(Rule(
            f"arm-{spec.name}",
            F.ExtendingAdd(
                Wild("acc", acc_t),
                F.WideningMul(Wild("a", T), Wild("b", T)),
            ),
            target_op(
                spec, acc_t, Wild("acc", acc_t), Wild("a", T), Wild("b", T)
            ),
            source="synth:matmul,synth:gaussian7x7",
        ))

    # saturating_narrow(rounding_shr(x, c0)) -> uqrshrn (one instruction)
    for signed, spec in ((False, UQRSHRN), (True, UQRSHRN)):
        T = TVar("T", signed=signed, min_bits=16, max_bits=64)
        add(Rule(
            f"arm-uqrshrn-{'s' if signed else 'u'}",
            F.SaturatingNarrow(
                F.RoundingShr(Wild("x", T), ConstWild("c0", T))
            ),
            target_op(
                spec, TNarrow(T), Wild("x", T), ConstWild("c0", T)
            ),
            predicate=lambda m, ctx: 0 < m.consts["c0"] < m.tenv["T"].bits,
        ))

    # T.narrow()(rounding_shr(x, c0)) -> rshrn, when bounds prove the
    # narrowing is exact (§5.3.1's predicated shift-right-narrow rules).
    T = TVar("T", min_bits=16, max_bits=64)
    add(Rule(
        "arm-rshrn-predicated",
        E.Cast(
            TNarrow(T),
            F.RoundingShr(Wild("x", T), ConstWild("c0", T)),
        ),
        target_op(RSHRN, TNarrow(T), Wild("x", T), ConstWild("c0", T)),
        predicate=_fits_narrow_after_shift,
        source="synth:gaussian3x3,synth:average_pool",
    ))

    # rounding_mul_shr(x, y, bits-1) -> sqrdmulh   (specific constants)
    for t_bits in (16, 32):
        add(shared.q_format_mul(f"arm-sqrdmulh-{t_bits}", SQRDMULH, t_bits))

    # ---------------- direct mappings ---------------------------------
    # widening adds / subs / muls
    for signed, wadd, wsub, wmul, wshl, eadd in (
        (False, UADDL, USUBL, UMULL, USHLL, UADDW),
        (True, SADDL, SSUBL, SMULL, SSHLL, SADDW),
    ):
        T = TVar("T", signed=signed, max_bits=32)
        wide = TWiden(T)
        wide_s = TWithSign(TWiden(T), True)
        add(Rule(
            f"arm-{wadd.name}",
            F.WideningAdd(Wild("a", T), Wild("b", T)),
            target_op(wadd, wide, Wild("a", T), Wild("b", T)),
        ))
        add(Rule(
            f"arm-{wsub.name}",
            F.WideningSub(Wild("a", T), Wild("b", T)),
            target_op(wsub, wide_s, Wild("a", T), Wild("b", T)),
        ))
        add(Rule(
            f"arm-{wmul.name}",
            F.WideningMul(Wild("a", T), Wild("b", T)),
            target_op(wmul, wide, Wild("a", T), Wild("b", T)),
        ))
        add(Rule(
            f"arm-{wshl.name}",
            F.WideningShl(Wild("a", T), ConstWild("c0", T)),
            target_op(wshl, wide, Wild("a", T), ConstWild("c0", T)),
            predicate=lambda m, ctx: 0 <= m.consts["c0"] < m.tenv["T"].bits,
        ))
        add(Rule(
            f"arm-{eadd.name}",
            F.ExtendingAdd(Wild("a", wide), Wild("b", T)),
            target_op(eadd, wide, Wild("a", wide), Wild("b", T)),
        ))

    T = _u()
    add(Rule(
        "arm-usubw",
        F.ExtendingSub(Wild("a", TWiden(T)), Wild("b", T)),
        target_op(USUBW, TWiden(T), Wild("a", TWiden(T)), Wild("b", T)),
    ))

    # abs / absd
    T = TVar("T", signed=True, max_bits=64)
    add(Rule(
        "arm-abs",
        F.Abs(Wild("a", T)),
        target_op(ABS, TWithSign(TVar("T"), False), Wild("a", T)),
    ))
    for signed, spec in ((False, UABD), (True, SABD)):
        T = TVar("T", signed=signed, max_bits=64)
        add(Rule(
            f"arm-{spec.name}",
            F.Absd(Wild("a", T), Wild("b", T)),
            target_op(
                spec, TWithSign(TVar("T"), False), Wild("a", T), Wild("b", T)
            ),
        ))

    # saturating / halving families (same-type binaries)
    for fpir_cls, spec_u, spec_s in (
        (F.SaturatingAdd, UQADD, SQADD),
        (F.SaturatingSub, UQSUB, SQSUB),
        (F.HalvingAdd, UHADD, SHADD),
        (F.HalvingSub, UHSUB, SHSUB),
        (F.RoundingHalvingAdd, URHADD, SRHADD),
    ):
        for signed, spec in ((False, spec_u), (True, spec_s)):
            T = TVar("T", signed=signed, max_bits=64)
            add(Rule(
                f"arm-{spec.name}",
                fpir_cls(Wild("a", T), Wild("b", T)),
                target_op(spec, TVar("T"), Wild("a", T), Wild("b", T)),
            ))

    # rounding / saturating shifts (shift amount may differ in sign)
    for fpir_cls, spec_u, spec_s in (
        (F.RoundingShl, URSHL, SRSHL),
        (F.RoundingShr, URSHR, SRSHR),
        (F.SaturatingShl, UQSHL, SQSHL),
    ):
        for signed, spec in ((False, spec_u), (True, spec_s)):
            T = TVar("T", signed=signed, max_bits=64)
            S = TVar("S", max_bits=64)
            add(Rule(
                f"arm-{spec.name}",
                fpir_cls(Wild("a", T), Wild("b", S)),
                target_op(spec, TVar("T"), Wild("a", T), Wild("b", S)),
                predicate=_same_bits("T", "S"),
            ))

    # saturating narrows
    for signed, spec in ((False, UQXTN), (True, SQXTN)):
        T = TVar("T", signed=signed, min_bits=16, max_bits=64)
        add(Rule(
            f"arm-{spec.name}",
            F.SaturatingNarrow(Wild("a", T)),
            target_op(spec, TNarrow(T), Wild("a", T)),
        ))
    # signed -> unsigned saturating narrow: sqxtun
    T = TVar("T", signed=True, min_bits=16, max_bits=64)
    add(Rule(
        "arm-sqxtun",
        F.SaturatingCast(
            TWithSign(TNarrow(T), False), Wild("a", T)
        ),
        target_op(SQXTUN, TWithSign(TNarrow(T), False), Wild("a", T)),
    ))

    return rules


def _same_bits(ta, tb):
    def pred(m, ctx):
        return m.tenv[ta].bits == m.tenv[tb].bits

    return pred


def _fits_narrow_after_shift(m, ctx) -> bool:
    t = m.tenv["T"]
    c = m.consts["c0"]
    if not (0 < c < t.bits):
        return False
    n = t.narrow()
    shifted = F.RoundingShr(m.env["x"], E.Const(t, c))
    return ctx.upper_bounded(shifted, n.max_value) and ctx.lower_bounded(
        shifted, n.min_value
    )


LOWERING_RULES: List[Rule] = _rules()


def _rake_extra() -> List[Rule]:
    """Rules only Rake's search finds (global reorderings, §6)."""
    rules: List[Rule] = []
    # Reassociate accumulate chains so an extra umlal/udot can fuse —
    # the "global computation reordering" PITCHFORK cannot express
    # (gaussian7x7 on ARM).
    T = TVar("T", max_bits=32)
    wide = TWiden(T)
    rules.append(Rule(
        "rake-arm-reassoc-mac",
        E.Add(
            E.Add(Wild("x", wide), F.WideningMul(Wild("a", T), Wild("b", T))),
            Wild("z", wide),
        ),
        E.Add(
            E.Add(Wild("x", wide), Wild("z", wide)),
            F.WideningMul(Wild("a", T), Wild("b", T)),
        ),
        source="rake",
    ))
    return rules


RAKE_EXTRA_RULES: List[Rule] = _rake_extra()
