"""Lowering rules that several backends share (§3.1.1, §3.3).

FPIR needs "one efficient lowering for targets that don't support this
operation", not one per target: "x86, WebAssembly, and PowerPC do not
support halving_add, and therefore share PITCHFORK's fast non-widening
implementation".  Each builder here writes one such rule shape once:
a compound lowering (several are the bit-tricks of Dietz's Aggregate
Magic Algorithms, the paper's [17]), the predicated narrow of Fig. 3c,
or the specific-constant Q-format multiply.  A target calls the builder
in its ``_rules()``, under its own rule name and at its own place in
the priority order.

A rule's fingerprint hashes the bytecode of its predicate and computed
constants, not their module, so editing one here moves the cache keys
of every target that shares it.
"""

from __future__ import annotations

from ..fpir import ops as F
from ..ir import expr as E
from ..trs.pattern import ConstWild, PConst, TNarrow, TVar, TWithSign, Wild
from ..trs.rule import Rule
from .isa import InstrSpec, target_op

__all__ = [
    "halving_add_magic",
    "absd_unsigned",
    "absd_maxmin",
    "rounding_shr_addshift",
    "rounding_shr_magic",
    "predicated_narrow",
    "q_format_mul",
]


# ----------------------------------------------------------------------
# Compound lowerings (the [17] bit-tricks)
# ----------------------------------------------------------------------
def halving_add_magic(prefix: str) -> Rule:
    """``halving_add(x, y)`` as ``(x & y) + ((x ^ y) >> 1)``: no
    widening needed."""
    T = TVar("T", max_bits=64)
    x, y = Wild("x", T), Wild("y", T)
    return Rule(
        f"{prefix}-halving-add-magic",
        F.HalvingAdd(x, y),
        E.Add(
            E.BitAnd(x, y),
            E.Shr(E.BitXor(x, y), PConst(TVar("T"), 1)),
        ),
    )


def absd_unsigned(prefix: str) -> Rule:
    """Unsigned ``absd`` as ``por(psubus(x, y), psubus(y, x))``
    (Fig. 3b), at the 8/16-bit widths saturating subtracts have."""
    T = TVar("T", signed=False, max_bits=16)
    x, y = Wild("x", T), Wild("y", T)
    return Rule(
        f"{prefix}-absd-unsigned",
        F.Absd(x, y),
        E.BitOr(F.SaturatingSub(x, y), F.SaturatingSub(y, x)),
    )


def absd_maxmin(prefix: str) -> Rule:
    """Signed (or wide unsigned) ``absd``: max - min, reinterpreted
    unsigned."""
    T = TVar("T", max_bits=64)
    x, y = Wild("x", T), Wild("y", T)
    return Rule(
        f"{prefix}-absd-maxmin",
        F.Absd(x, y),
        E.Reinterpret(
            TWithSign(TVar("T"), False), E.Sub(E.Max(x, y), E.Min(x, y))
        ),
    )


def rounding_shr_addshift(prefix: str, max_bits: int = 64) -> Rule:
    """``rounding_shr`` by a constant as ``(x + 2**(c-1)) >> c`` when the
    bounds prove the bias add cannot overflow.  This mirrors the original
    source, so lifting never pessimizes a target without native rounding
    shifts (nor makes a hand-only configuration widen)."""
    T = TVar("T", max_bits=max_bits)
    S = TVar("S", max_bits=max_bits)
    return Rule(
        f"{prefix}-rounding-shr-addshift",
        F.RoundingShr(Wild("x", T), ConstWild("c0", S)),
        E.Shr(
            E.Add(
                Wild("x", T),
                PConst(TVar("T"), lambda c: 1 << (c["c0"] - 1)),
            ),
            PConst(TVar("T"), lambda c: c["c0"]),
        ),
        predicate=_rshr_add_safe,
    )


# the shift is in range, at the value's width, and x + 2**(c-1) fits.
# (A docstring would be one more code constant, and so would move the
# fingerprint of every rule with this predicate.)
def _rshr_add_safe(m, ctx) -> bool:
    c = m.consts["c0"]
    t = m.tenv["T"]
    if not (0 < c < t.bits) or t.bits != m.tenv["S"].bits:
        return False
    return ctx.upper_bounded(m.env["x"], t.max_value - (1 << (c - 1)))


def rounding_shr_magic(prefix: str) -> Rule:
    """``rounding_shr`` by a positive constant as
    ``(x >> c) + ((x >> (c-1)) & 1)``: no bounds needed."""
    T = TVar("T", max_bits=64)
    x = Wild("x", T)
    return Rule(
        f"{prefix}-rounding-shr-magic",
        F.RoundingShr(x, ConstWild("c0", TVar("S", max_bits=64))),
        E.Add(
            E.Shr(x, PConst(TVar("T"), lambda c: c["c0"])),
            E.BitAnd(
                E.Shr(x, PConst(TVar("T"), lambda c: c["c0"] - 1)),
                PConst(TVar("T"), 1),
            ),
        ),
        predicate=lambda m, ctx: 0 < m.consts["c0"] < m.tenv["T"].bits
        and m.tenv["T"].bits == m.tenv["S"].bits,
    )


# ----------------------------------------------------------------------
# Predicated and specific-constant rules (§3.3)
# ----------------------------------------------------------------------
def predicated_narrow(name: str, spec: InstrSpec,
                      source: str = "hand") -> Rule:
    """``saturating_narrow(a)`` of an unsigned 16/32-bit ``a`` as
    ``spec``, a pack that reads its input as SIGNED: usable iff the
    bounds prove ``a`` <= the signed maximum (Fig. 3c,
    ``sat_cast<u8>(x_u16) -> vsat(x) [upper_bounded(x, INT16_MAX)]``)."""
    T = TVar("T", signed=False, min_bits=16, max_bits=32)
    return Rule(
        name,
        F.SaturatingNarrow(Wild("a", T)),
        target_op(spec, TNarrow(T), Wild("a", T)),
        predicate=lambda m, ctx: ctx.upper_bounded(
            m.env["a"], m.tenv["T"].with_signed(True).max_value
        ),
        source=source,
    )


def q_format_mul(name: str, spec: InstrSpec, bits: int) -> Rule:
    """``rounding_mul_shr(x, y, bits-1)`` of signed ``bits``-wide values
    as ``spec``, a Q(bits-1) rounding multiply (sqrdmulh-style)."""
    T = TVar("T", signed=True, min_bits=bits, max_bits=bits)
    S = TVar("S", min_bits=bits, max_bits=bits)
    return Rule(
        name,
        F.RoundingMulShr(Wild("x", T), Wild("y", T), ConstWild("c0", S)),
        target_op(spec, TVar("T"), Wild("x", T), Wild("y", T)),
        predicate=lambda m, ctx, _b=bits: m.consts["c0"] == _b - 1,
    )
