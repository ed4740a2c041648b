"""Interval analysis (bounds inference) over core IR and FPIR.

This reproduces the bounds machinery PITCHFORK reuses from Halide (§3.3):
predicated lowering rules ask compile-time questions like "is this u16
expression provably <= INT16_MAX?" so that instructions such as x86's
``vpackuswb`` or HVX's ``vsat`` (which interpret their input as *signed*
16-bit) can be used on unsigned data.

The analysis is a standard forward interval evaluation with an expression
cache ("for performance reasons, a simple expression cache for bounds
queries"), extended with transfer functions for every FPIR instruction —
the paper notes this was "only a small modification to the existing bounds
inference engine in Halide".  The compositional instructions are bounded
through their Table 1 expansion, memoized per process by value (op, types,
operand intervals), so the expansion is built once per distinct query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..fpir import ops as F
from ..fpir.semantics import expand
from ..ir import expr as E
from ..ir.types import ScalarType
from ..trs.rule import RuleContext

__all__ = ["Interval", "BoundsAnalyzer", "BoundsContext"]


@dataclass(frozen=True)
class Interval:
    """A closed integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def of_type(t: ScalarType) -> "Interval":
        return Interval(t.min_value, t.max_value)

    @staticmethod
    def point(v: int) -> "Interval":
        return Interval(v, v)

    def fits(self, t: ScalarType) -> bool:
        """True if every value in the interval is representable in ``t``."""
        return t.contains(self.lo) and t.contains(self.hi)

    def clamped(self, t: ScalarType) -> "Interval":
        return Interval(t.saturate(self.lo), t.saturate(self.hi))

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __contains__(self, v: int) -> bool:
        return self.lo <= v <= self.hi


def _corners(a: Interval, b: Interval, fn) -> Interval:
    vals = [fn(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(vals), max(vals))


class BoundsAnalyzer:
    """Computes value intervals for expressions, with a query cache.

    Unknown inputs (:class:`Var`) are bounded by their type's range, or by
    caller-provided hints (``var_bounds``) when the pipeline knows more —
    e.g. image inputs known to be 10-bit values stored in u16.
    """

    def __init__(self, var_bounds: Optional[Dict[str, Interval]] = None):
        self.var_bounds = dict(var_bounds or {})
        # Keyed structurally; with hash-cons interning (repro.ir.expr)
        # lookups degenerate to identity hits, so repeated bounds queries
        # on shared subtrees cost one dict probe each.
        self._cache: Dict[E.Expr, Interval] = {}

    # ------------------------------------------------------------------
    def bounds(self, expr: E.Expr) -> Interval:
        got = self._cache.get(expr)
        if got is None:
            got = self._compute(expr)
            # Whatever we derived, the value always fits its static type.
            t = expr.type
            if isinstance(t, ScalarType):
                ty = Interval.of_type(t)
                got = Interval(
                    max(got.lo, ty.lo), min(got.hi, ty.hi)
                ) if got.lo <= ty.hi and got.hi >= ty.lo else ty
            self._cache[expr] = got
        return got

    # ------------------------------------------------------------------
    def _compute(self, e: E.Expr) -> Interval:
        if isinstance(e, E.Const):
            return Interval.point(e.value)
        if isinstance(e, E.Var):
            hint = self.var_bounds.get(e.name)
            return hint if hint is not None else Interval.of_type(e.type)

        t = e.type

        if isinstance(e, E.Cast):
            inner = self.bounds(e.value)
            if inner.fits(e.to):
                return inner  # value-preserving conversion
            return Interval.of_type(e.to)  # may wrap: give up precisely

        if isinstance(e, E.Reinterpret):
            inner = self.bounds(e.value)
            if inner.fits(e.to):
                return inner
            return Interval.of_type(e.to)

        if isinstance(e, E.Neg):
            a = self.bounds(e.value)
            cand = Interval(-a.hi, -a.lo)
            return cand if cand.fits(t) else Interval.of_type(t)

        if isinstance(e, E.Add):
            return self._wrap_aware(
                t, _corners(self.bounds(e.a), self.bounds(e.b), lambda x, y: x + y)
            )
        if isinstance(e, E.Sub):
            return self._wrap_aware(
                t, _corners(self.bounds(e.a), self.bounds(e.b), lambda x, y: x - y)
            )
        if isinstance(e, E.Mul):
            return self._wrap_aware(
                t, _corners(self.bounds(e.a), self.bounds(e.b), lambda x, y: x * y)
            )
        if isinstance(e, E.Min):
            a, b = self.bounds(e.a), self.bounds(e.b)
            return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
        if isinstance(e, E.Max):
            a, b = self.bounds(e.a), self.bounds(e.b)
            return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
        if isinstance(e, E.Div):
            a, b = self.bounds(e.a), self.bounds(e.b)
            cands = []
            for y in {b.lo, b.hi, 1, -1}:
                if y == 0 or y not in b:
                    continue
                cands += [a.lo // y, a.hi // y]
            if 0 in b:
                cands.append(0)  # x / 0 == 0
            if not cands:
                return Interval.of_type(t)
            return self._wrap_aware(t, Interval(min(cands), max(cands)))
        if isinstance(e, E.Mod):
            b = self.bounds(e.b)
            hi = max(abs(b.lo), abs(b.hi))
            return Interval(-hi if t.signed else 0, hi)

        if isinstance(e, (E.Shl, E.Shr)):
            return self._shift_bounds(e, t)

        if isinstance(e, (E.BitAnd, E.BitOr, E.BitXor)):
            a, b = self.bounds(e.a), self.bounds(e.b)
            if not t.signed:
                if isinstance(e, E.BitAnd):
                    return Interval(0, min(a.hi, b.hi))
                hi_bits = max(a.hi, b.hi).bit_length()
                return Interval(0, (1 << hi_bits) - 1) if hi_bits else Interval.point(0)
            return Interval.of_type(t)

        if isinstance(e, E.CmpOp) or isinstance(e, E.Not):
            return Interval(0, 1)

        if isinstance(e, E.Select):
            return self.bounds(e.t).union(self.bounds(e.f))

        if isinstance(e, F.FPIRInstr):
            return self._fpir_bounds(e, t)

        # Unknown node kinds (target instructions): type range.
        return Interval.of_type(t)

    # ------------------------------------------------------------------
    def _wrap_aware(self, t: ScalarType, exact: Interval) -> Interval:
        """Exact result interval if it fits the type, else the type range
        (wrapping makes anything possible)."""
        return exact if exact.fits(t) else Interval.of_type(t)

    def _shift_bounds(self, e: E.Expr, t: ScalarType) -> Interval:
        a, b = self.bounds(e.a), self.bounds(e.b)
        left = isinstance(e, E.Shl)
        if b.lo != b.hi:
            return Interval.of_type(t)
        s = b.lo
        if s < 0:
            left, s = not left, -s
        if left:
            if s >= t.bits and (a.lo or a.hi):
                # any nonzero x << s leaves the type: same answer as the
                # exact interval, without building a 2**s-sized integer
                return Interval.of_type(t)
            exact = Interval(a.lo << s, a.hi << s)
            return self._wrap_aware(t, exact)
        if s >= t.bits:
            return Interval(-1, 0) if t.signed else Interval.point(0)
        return Interval(a.lo >> s, a.hi >> s)

    def _fpir_bounds(self, e: F.FPIRInstr, t: ScalarType) -> Interval:
        a = self.bounds(e.children[0]) if e.children else None

        if isinstance(e, F.WideningAdd):
            b = self.bounds(e.b)
            return Interval(a.lo + b.lo, a.hi + b.hi)
        if isinstance(e, F.WideningSub):
            b = self.bounds(e.b)
            return Interval(a.lo - b.hi, a.hi - b.lo)
        if isinstance(e, F.WideningMul):
            b = self.bounds(e.b)
            return _corners(a, b, lambda x, y: x * y)
        if isinstance(e, (F.SaturatingAdd,)):
            b = self.bounds(e.b)
            return Interval(a.lo + b.lo, a.hi + b.hi).clamped(t)
        if isinstance(e, F.SaturatingSub):
            b = self.bounds(e.b)
            return Interval(a.lo - b.hi, a.hi - b.lo).clamped(t)
        if isinstance(e, (F.HalvingAdd, F.RoundingHalvingAdd)):
            b = self.bounds(e.b)
            bump = 1 if isinstance(e, F.RoundingHalvingAdd) else 0
            return Interval(
                (a.lo + b.lo + bump) // 2, (a.hi + b.hi + bump) // 2
            )
        if isinstance(e, F.HalvingSub):
            b = self.bounds(e.b)
            exact = Interval((a.lo - b.hi) // 2, (a.hi - b.lo) // 2)
            return self._wrap_aware(t, exact)
        if isinstance(e, F.Abs):
            lo = 0 if (a.lo <= 0 <= a.hi) else min(abs(a.lo), abs(a.hi))
            return Interval(lo, max(abs(a.lo), abs(a.hi)))
        if isinstance(e, F.Absd):
            b = self.bounds(e.b)
            hi = max(a.hi - b.lo, b.hi - a.lo, 0)
            lo = 0
            if a.lo > b.hi:
                lo = a.lo - b.hi
            elif b.lo > a.hi:
                lo = b.lo - a.hi
            return Interval(lo, hi)
        if isinstance(e, F.SaturatingCast):
            return a.clamped(e.to)
        if isinstance(e, F.SaturatingNarrow):
            return a.clamped(t)
        if isinstance(e, (F.ExtendingAdd, F.ExtendingSub)):
            b = self.bounds(e.b)
            exact = (
                Interval(a.lo + b.lo, a.hi + b.hi)
                if isinstance(e, F.ExtendingAdd)
                else Interval(a.lo - b.hi, a.hi - b.lo)
            )
            return self._wrap_aware(t, exact)
        if isinstance(e, F.ExtendingMul):
            b = self.bounds(e.b)
            return self._wrap_aware(t, _corners(a, b, lambda x, y: x * y))

        # Compositional instructions (shifts, mul_shr...): the interval of
        # the definitional expansion, memoized by value.
        values = e._field_values(e)
        return _compositional_bounds(
            type(e),
            tuple(_OPERAND if isinstance(v, E.Expr) else v for v in values),
            tuple(c.type for c in e.children),
            tuple(self.bounds(c) for c in e.children),
        )


def expansion_bounds(
    e: F.FPIRInstr, operands: Tuple[Interval, ...]
) -> Interval:
    """Interval of FPIR node ``e`` when its ``i``-th operand lies in
    ``operands[i]``: a fresh :class:`BoundsAnalyzer` walks its Table 1
    expansion over surrogate variables.  Sound because expansion is
    semantics-preserving.  The unmemoized reference for
    :func:`_compositional_bounds`.
    """
    surrogate_env = {}
    names = []
    for i, (child, interval) in enumerate(zip(e.children, operands)):
        name = f"__b{i}"
        names.append(E.Var(child.type, name))
        surrogate_env[name] = interval
    expansion = expand(e.with_children(names))
    return BoundsAnalyzer(surrogate_env).bounds(expansion)


#: Stands for an operand in a :func:`_compositional_bounds` field tuple.
_OPERAND = object()


@lru_cache(maxsize=256)
def _compositional_bounds(
    cls: type,
    fields: tuple,
    types: Tuple[ScalarType, ...],
    operands: Tuple[Interval, ...],
) -> Interval:
    """:func:`expansion_bounds` keyed by value, not by node.

    ``fields`` is the node's ``_fields`` values with each operand replaced
    by ``_OPERAND``, ``types`` and ``operands`` are the operands' types and
    intervals.  The expansion depends on nothing else, so the interval is
    a pure function of the key; no node or variable name is in it, and the
    memo hits across compiles and renamed inputs.  The size bound keeps
    arbitrary caller ``var_bounds`` from growing it.
    """
    surrogates = iter([E.Var(t, f"__b{i}") for i, t in enumerate(types)])
    node = cls(*[next(surrogates) if f is _OPERAND else f for f in fields])
    return expansion_bounds(node, operands)


class BoundsContext(RuleContext):
    """A :class:`~repro.trs.rule.RuleContext` backed by interval analysis."""

    def __init__(self, analyzer: Optional[BoundsAnalyzer] = None):
        self.analyzer = analyzer if analyzer is not None else BoundsAnalyzer()

    def upper_bounded(self, expr: E.Expr, bound: int) -> bool:
        return self.analyzer.bounds(expr).hi <= bound

    def lower_bounded(self, expr: E.Expr, bound: int) -> bool:
        return self.analyzer.bounds(expr).lo >= bound

    def nonzero(self, expr: E.Expr) -> bool:
        b = self.analyzer.bounds(expr)
        return 0 not in b
