"""FPIR: the fixed-point intermediate representation (paper Table 1).

Every instruction here is a target-agnostic fixed-point idiom that real DSP
ISAs accelerate.  Each node class:

* computes its result type from its operand types (Table 1's typing rules,
  e.g. widening preserves signedness, ``absd`` is always unsigned);
* has a compositional *reference semantics* as an expansion into more
  primitive IR (:mod:`repro.fpir.semantics`), which is the single source of
  truth for what the instruction means;
* has a direct evaluator in :mod:`repro.interp` that is property-tested
  against the expansion.

The set matches Table 1 exactly, plus ``saturating_shl`` from §8.4 (the
XTensa/ARM ``sqshl`` class, added when the XTensa backend was brought up).
Deliberate exclusions (§3.1.2) — e.g. ``rounding_halving_sub`` — are *not*
present, and tests assert they stay absent.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..ir.expr import Expr, TypeError_
from ..ir.types import ScalarType

__all__ = [
    "FPIRInstr",
    "WideningAdd",
    "WideningSub",
    "WideningMul",
    "WideningShl",
    "WideningShr",
    "ExtendingAdd",
    "ExtendingSub",
    "ExtendingMul",
    "Abs",
    "Absd",
    "SaturatingCast",
    "SaturatingNarrow",
    "SaturatingAdd",
    "SaturatingSub",
    "HalvingAdd",
    "HalvingSub",
    "RoundingHalvingAdd",
    "RoundingShl",
    "RoundingShr",
    "MulShr",
    "RoundingMulShr",
    "SaturatingShl",
    "FPIR_OPS",
    "fpir_name",
]


def _concrete(*types: object) -> bool:
    return all(isinstance(t, ScalarType) for t in types)


# Symbolic type constructors, used when an instruction's operands carry
# pattern types (rule left/right-hand sides).  Imported lazily to avoid a
# module cycle with repro.trs.
def _sym_widen(t):
    from ..trs.pattern import TWiden

    return TWiden(t)


def _sym_narrow(t):
    from ..trs.pattern import TNarrow

    return TNarrow(t)


def _sym_sign(t, signed: bool):
    from ..trs.pattern import TWithSign

    return TWithSign(t, signed)


class FPIRInstr(Expr):
    """Base class for all FPIR instructions."""

    #: snake_case name used in printing and rule files
    name: str = ""


# ----------------------------------------------------------------------
# Widening arithmetic: T x T -> widen(T)
# ----------------------------------------------------------------------
class _WideningBinary(FPIRInstr):
    __slots__ = ("a", "b")
    _fields = ("a", "b")

    #: subclass hook: may the operands' signedness differ?
    _mixed_sign = False

    def __init__(self, a: Expr, b: Expr):
        ta, tb = a.type, b.type
        if _concrete(ta, tb):
            if ta.is_bool or tb.is_bool:
                raise TypeError_(f"{self.name}: bool operand")
            if self._mixed_sign:
                if ta.bits != tb.bits:
                    raise TypeError_(f"{self.name}: width mismatch {ta}/{tb}")
            elif ta != tb:
                raise TypeError_(f"{self.name}: type mismatch {ta}/{tb}")
            if not ta.can_widen():
                raise TypeError_(f"{self.name}: cannot widen {ta}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _compute_type(self) -> ScalarType:
        t = self.a.type
        return t.widen() if isinstance(t, ScalarType) else _sym_widen(t)


class WideningAdd(_WideningBinary):
    """``widen(x) + widen(y)`` — exact 2N-bit sum (ARM uaddl, HVX vaddubh)."""

    name = "widening_add"


class WideningSub(_WideningBinary):
    """``widen(x) - widen(y)``, result is the wider *signed* type."""

    name = "widening_sub"

    def _compute_type(self) -> ScalarType:
        t = self.a.type
        if isinstance(t, ScalarType):
            return t.widen().with_signed(True)
        return _sym_sign(_sym_widen(t), True)


class WideningMul(_WideningBinary):
    """``widen(x) * widen(y)``; operands may differ in signedness.

    Result is unsigned only when both operands are unsigned.
    """

    name = "widening_mul"
    _mixed_sign = True

    def _compute_type(self) -> ScalarType:
        ta, tb = self.a.type, self.b.type
        if isinstance(ta, ScalarType) and isinstance(tb, ScalarType):
            return ScalarType(ta.bits * 2, ta.signed or tb.signed)
        return ta  # symbolic (pattern) type


class WideningShl(_WideningBinary):
    """``widen(x) << widen(y)`` — exact 2N-bit left shift (ARM ushll)."""

    name = "widening_shl"
    _mixed_sign = True


class WideningShr(_WideningBinary):
    """``widen(x) >> widen(y)``."""

    name = "widening_shr"
    _mixed_sign = True


# ----------------------------------------------------------------------
# Extending arithmetic: wide x narrow -> wide (accumulator idioms)
# ----------------------------------------------------------------------
class _ExtendingBinary(FPIRInstr):
    """``x (op) widen(y)`` where x already has double the bits of y."""

    __slots__ = ("a", "b")
    _fields = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        ta, tb = a.type, b.type
        if _concrete(ta, tb):
            if tb.is_bool or ta.is_bool:
                raise TypeError_(f"{self.name}: bool operand")
            if not tb.can_widen() or ta != tb.widen():
                raise TypeError_(
                    f"{self.name}: x must be widen(y); got {ta} vs {tb}"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _compute_type(self) -> ScalarType:
        return self.a.type


class ExtendingAdd(_ExtendingBinary):
    """``x + widen(y)`` — widening accumulate (ARM uaddw)."""

    name = "extending_add"


class ExtendingSub(_ExtendingBinary):
    """``x - widen(y)`` (ARM usubw)."""

    name = "extending_sub"


class ExtendingMul(_ExtendingBinary):
    """``x * widen(y)`` (wrapping product at x's width)."""

    name = "extending_mul"


# ----------------------------------------------------------------------
# Absolute value / difference
# ----------------------------------------------------------------------
class Abs(FPIRInstr):
    """``select(x > 0, x, -x)`` — the output is always unsigned.

    Unsignedness makes ``abs`` total: ``abs(i8 -128) == u8 128``.
    """

    name = "abs"
    __slots__ = ("a",)
    _fields = ("a",)

    def __init__(self, a: Expr):
        t = a.type
        if _concrete(t) and t.is_bool:
            raise TypeError_("abs: bool operand")
        object.__setattr__(self, "a", a)

    def _compute_type(self) -> ScalarType:
        t = self.a.type
        if isinstance(t, ScalarType):
            return t.with_signed(False)
        return _sym_sign(t, False)


class Absd(FPIRInstr):
    """``select(x > y, x - y, y - x)`` — absolute difference, unsigned.

    (ARM uabd/sabd, HVX vabsdiff; the Sobel building block.)
    """

    name = "absd"
    __slots__ = ("a", "b")
    _fields = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        ta, tb = a.type, b.type
        if _concrete(ta, tb):
            if ta != tb:
                raise TypeError_(f"absd: type mismatch {ta}/{tb}")
            if ta.is_bool:
                raise TypeError_("absd: bool operand")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _compute_type(self) -> ScalarType:
        t = self.a.type
        if isinstance(t, ScalarType):
            return t.with_signed(False)
        return _sym_sign(t, False)


# ----------------------------------------------------------------------
# Saturation
# ----------------------------------------------------------------------
class SaturatingCast(FPIRInstr):
    """``cast<t>(min(max(x, t.min()), t.max()))`` — clamp then convert."""

    name = "saturating_cast"
    __slots__ = ("to", "a")
    _fields = ("to", "a")

    def __init__(self, to: ScalarType, a: Expr):
        if isinstance(to, ScalarType) and to.is_bool:
            raise TypeError_("saturating_cast: bool target")
        t = a.type
        if _concrete(t) and t.is_bool:
            raise TypeError_("saturating_cast: bool operand")
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "a", a)

    def _compute_type(self) -> ScalarType:
        return self.to


class SaturatingNarrow(FPIRInstr):
    """``saturating_cast<type(x).narrow()>(x)`` (ARM uqxtn, HVX vsat)."""

    name = "saturating_narrow"
    __slots__ = ("a",)
    _fields = ("a",)

    def __init__(self, a: Expr):
        t = a.type
        if _concrete(t) and not t.can_narrow():
            raise TypeError_(f"saturating_narrow: cannot narrow {t}")
        object.__setattr__(self, "a", a)

    def _compute_type(self) -> ScalarType:
        t = self.a.type
        return t.narrow() if isinstance(t, ScalarType) else _sym_narrow(t)


class _SameTypeBinary(FPIRInstr):
    """Helper base: T x T -> T instructions."""

    __slots__ = ("a", "b")
    _fields = ("a", "b")
    _allow_sign_mismatch = False

    def __init__(self, a: Expr, b: Expr):
        ta, tb = a.type, b.type
        if _concrete(ta, tb):
            if ta.is_bool or tb.is_bool:
                raise TypeError_(f"{self.name}: bool operand")
            if self._allow_sign_mismatch:
                if ta.bits != tb.bits:
                    raise TypeError_(f"{self.name}: width mismatch {ta}/{tb}")
            elif ta != tb:
                raise TypeError_(f"{self.name}: type mismatch {ta}/{tb}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _compute_type(self) -> ScalarType:
        return self.a.type


class SaturatingAdd(_SameTypeBinary):
    """``saturating_narrow(widening_add(x, y))`` (x86 vpaddusb, ARM uqadd)."""

    name = "saturating_add"


class SaturatingSub(_SameTypeBinary):
    """``saturating_cast<type(x)>(widening_sub(x, y))`` (x86 vpsubusb)."""

    name = "saturating_sub"


# ----------------------------------------------------------------------
# Halving / rounding arithmetic
# ----------------------------------------------------------------------
class HalvingAdd(_SameTypeBinary):
    """``narrow(widening_add(x, y) / 2)`` — round-down average (ARM uhadd)."""

    name = "halving_add"


class HalvingSub(_SameTypeBinary):
    """``narrow((widen(x) - widen(y)) / 2)`` (ARM uhsub; wraps like uhsub)."""

    name = "halving_sub"


class RoundingHalvingAdd(_SameTypeBinary):
    """``narrow((widening_add(x, y) + 1) / 2)`` — round-up average
    (x86 vpavgb, ARM urhadd, HVX vavg:rnd)."""

    name = "rounding_halving_add"


class RoundingShl(_SameTypeBinary):
    """Rounding shift left; a negative amount is a round-to-nearest right
    shift: ``saturating_narrow(widening_add(x, select(y < 0, 1 >> (y+1), 0))
    << y)`` (ARM urshl/srshl with negative amounts)."""

    name = "rounding_shl"
    _allow_sign_mismatch = True


class RoundingShr(_SameTypeBinary):
    """Round-to-nearest right shift:
    ``saturating_narrow(widening_add(x, select(y > 0, 1 << (y-1), 0)) >> y)``.

    (Table 1 prints this rule with the same negative-shift convention as
    ``rounding_shl``; written out, the rounding term ``2**(y-1)`` is added
    exactly when ``y > 0``.)
    """

    name = "rounding_shr"
    _allow_sign_mismatch = True


# ----------------------------------------------------------------------
# Fused multiply-shift (fixed-point multiplication)
# ----------------------------------------------------------------------
class _MulShrBase(FPIRInstr):
    __slots__ = ("a", "b", "shift")
    _fields = ("a", "b", "shift")

    def __init__(self, a: Expr, b: Expr, shift: Expr):
        ta, tb, ts = a.type, b.type, shift.type
        if _concrete(ta, tb, ts):
            if ta.is_bool or tb.is_bool or ts.is_bool:
                raise TypeError_(f"{self.name}: bool operand")
            if ta.bits != tb.bits or ta.bits != ts.bits:
                raise TypeError_(
                    f"{self.name}: width mismatch {ta}/{tb}/{ts}"
                )
            if not ta.can_widen():
                raise TypeError_(f"{self.name}: cannot widen {ta}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "shift", shift)

    def _compute_type(self) -> ScalarType:
        ta, tb = self.a.type, self.b.type
        if isinstance(ta, ScalarType) and isinstance(tb, ScalarType):
            return ScalarType(ta.bits, ta.signed or tb.signed)
        return ta  # symbolic


class MulShr(_MulShrBase):
    """``saturating_narrow(widening_mul(x, y) >> widen(z))``
    (x86 vpmulhw when z == 16)."""

    name = "mul_shr"


class RoundingMulShr(_MulShrBase):
    """``saturating_narrow(rounding_shr(widening_mul(x, y), widen(z)))``
    — the quantized-ML requantization primitive (ARM sqrdmulh,
    HVX vmpy:rnd:sat, WASM q15mulr)."""

    name = "rounding_mul_shr"


# ----------------------------------------------------------------------
# §8.4 extension
# ----------------------------------------------------------------------
class SaturatingShl(_SameTypeBinary):
    """``saturating_cast<type(x)>(widening_shl(x, y))`` (ARM sqshl/uqshl,
    XTensa IVP_SLSNX16; the §8.4 FPIR extension)."""

    name = "saturating_shl"
    _allow_sign_mismatch = True


#: Every FPIR instruction class, keyed by snake_case name.
FPIR_OPS: Dict[str, Type[FPIRInstr]] = {
    cls.name: cls
    for cls in [
        WideningAdd,
        WideningSub,
        WideningMul,
        WideningShl,
        WideningShr,
        ExtendingAdd,
        ExtendingSub,
        ExtendingMul,
        Abs,
        Absd,
        SaturatingCast,
        SaturatingNarrow,
        SaturatingAdd,
        SaturatingSub,
        HalvingAdd,
        HalvingSub,
        RoundingHalvingAdd,
        RoundingShl,
        RoundingShr,
        MulShr,
        RoundingMulShr,
        SaturatingShl,
    ]
}


def fpir_name(expr: Expr) -> str:
    """The FPIR name of a node, or '' if it is not an FPIR instruction."""
    return expr.name if isinstance(expr, FPIRInstr) else ""


# -- printing ----------------------------------------------------------
def _install_printers() -> None:
    from ..ir.printer import register_printer, to_string

    def _call(e: FPIRInstr) -> str:
        args = ", ".join(to_string(c) for c in e.children)
        return f"{e.name}({args})"

    def _cast_like(e: SaturatingCast) -> str:
        return f"saturating_cast<{e.to}>({to_string(e.a)})"

    for cls in FPIR_OPS.values():
        register_printer(cls, _call)
    register_printer(SaturatingCast, _cast_like)


_install_printers()
