"""Unit + property tests for bounds inference (§3.3's predicate engine)."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro import fpir as F
from repro.analysis import BoundsAnalyzer, BoundsContext, Interval
from repro.interp import evaluate_scalar
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import I8, I16, I32, I64, U8, U16

a = h.var("a", U8)
b = h.var("b", U8)
s = h.var("s", I8)


def bounds(e, var_bounds=None):
    return BoundsAnalyzer(var_bounds).bounds(e)


class TestIntervalBasics:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_of_type(self):
        assert Interval.of_type(U8) == Interval(0, 255)
        assert Interval.of_type(I8) == Interval(-128, 127)

    def test_fits_and_clamp(self):
        assert Interval(0, 100).fits(U8)
        assert not Interval(-1, 100).fits(U8)
        assert Interval(-10, 300).clamped(U8) == Interval(0, 255)

    def test_union_and_contains(self):
        u = Interval(0, 3).union(Interval(10, 12))
        assert u == Interval(0, 12)
        assert 5 in u and 13 not in u


class TestCoreTransfer:
    def test_var_defaults_to_type_range(self):
        assert bounds(a) == Interval(0, 255)

    def test_var_hint_narrows(self):
        assert bounds(a, {"a": Interval(0, 10)}) == Interval(0, 10)

    def test_widening_cast_preserves(self):
        assert bounds(h.u16(a)) == Interval(0, 255)

    def test_add_exact_when_no_overflow(self):
        assert bounds(h.u16(a) + h.u16(b)) == Interval(0, 510)

    def test_add_gives_up_on_possible_wrap(self):
        assert bounds(a + b) == Interval(0, 255)  # u8 wrap possible

    def test_mul_corners(self):
        # Interval arithmetic treats the two operands as independent, so
        # the square's lower corner is min*max (it cannot see x == x).
        x = h.var("x", I16)
        got = bounds(h.i32(x) * h.i32(x))
        assert got.hi == 32768 * 32768
        assert got.lo == -32768 * 32767

    def test_shift_by_constant(self):
        assert bounds(h.u16(a) << 4) == Interval(0, 255 << 4)
        assert bounds(h.u16(a) >> 4) == Interval(0, 15)

    def test_shift_by_huge_constant(self):
        # a shift amount from a 64-bit range: answered without building
        # a 2**amount-sized integer
        x = h.var("x", I64)
        huge = h.const(I64, 1 << 40)
        assert bounds(x << huge) == Interval.of_type(I64)
        assert bounds(x >> E.Neg(huge)) == Interval.of_type(I64)
        assert bounds(h.const(I64, 0) << huge) == Interval.point(0)

    def test_div_by_constant(self):
        assert bounds(h.u16(a) // 4) == Interval(0, 63)

    def test_min_max(self):
        assert bounds(h.minimum(h.u16(a), 100)) == Interval(0, 100)
        assert bounds(h.maximum(h.u16(a), 100)) == Interval(100, 255)

    def test_select_union(self):
        cond = E.LT(a, b)
        e = h.select(cond, h.const(U8, 10), h.const(U8, 20))
        assert bounds(e) == Interval(10, 20)

    def test_comparison_is_bool(self):
        assert bounds(E.LT(a, b)) == Interval(0, 1)


class TestFPIRTransfer:
    def test_widening_add(self):
        assert bounds(F.WideningAdd(a, b)) == Interval(0, 510)

    def test_widening_sub_goes_negative(self):
        assert bounds(F.WideningSub(a, b)) == Interval(-255, 255)

    def test_halving_add(self):
        assert bounds(F.HalvingAdd(a, b)) == Interval(0, 255)

    def test_rounding_halving_add_hint(self):
        hint = {"a": Interval(0, 10), "b": Interval(0, 20)}
        assert bounds(F.RoundingHalvingAdd(a, b), hint) == Interval(0, 15)

    def test_absd(self):
        hint = {"a": Interval(100, 110), "b": Interval(0, 10)}
        assert bounds(F.Absd(a, b), hint) == Interval(90, 110)

    def test_saturating_cast_clamps(self):
        x = h.var("x", I16)
        assert bounds(F.SaturatingCast(U8, x)) == Interval(0, 255)

    def test_saturating_add_clamps(self):
        assert bounds(F.SaturatingAdd(a, b)) == Interval(0, 255)

    def test_compositional_ops_via_expansion(self):
        # rounding_shr has no bespoke transfer function; its bounds come
        # from analyzing the Table 1 expansion.
        x = h.var("x", U16)
        e = F.RoundingShr(x, h.const(U16, 4))
        got = bounds(e, {"x": Interval(0, 4080)})
        assert got.hi <= 255 and got.lo >= 0

    def test_rounding_mul_shr_bounds(self):
        x = h.var("x", I16)
        y = h.var("y", I16)
        e = F.RoundingMulShr(x, y, h.const(I16, 15))
        got = bounds(e)
        # sound and within the result type's range
        assert -32768 <= got.lo <= got.hi <= 32767


class TestBoundsContext:
    def test_upper_bounded(self):
        ctx = BoundsContext(BoundsAnalyzer())
        e = h.u16(a) + h.u16(b)
        assert ctx.upper_bounded(e, 510)
        assert not ctx.upper_bounded(e, 509)

    def test_lower_bounded(self):
        ctx = BoundsContext(BoundsAnalyzer())
        assert ctx.lower_bounded(h.u16(a), 0)
        assert not ctx.lower_bounded(h.u16(a), 1)

    def test_nonzero(self):
        ctx = BoundsContext(BoundsAnalyzer({"a": Interval(3, 9)}))
        assert ctx.nonzero(a)
        ctx2 = BoundsContext(BoundsAnalyzer())
        assert not ctx2.nonzero(a)

    def test_cache_reuse(self):
        an = BoundsAnalyzer()
        e = h.u16(a) + h.u16(b)
        first = an.bounds(e)
        assert an.bounds(e) is first  # cached object


@settings(max_examples=150, deadline=None)
@given(
    av=st.integers(min_value=0, max_value=255),
    bv=st.integers(min_value=0, max_value=255),
    sv=st.integers(min_value=-8, max_value=8),
)
def test_bounds_are_sound(av, bv, sv):
    """Soundness: every concrete evaluation lies within inferred bounds."""
    exprs = [
        h.u16(a) + h.u16(b) * 3,
        F.WideningSub(a, b),
        F.RoundingHalvingAdd(a, b),
        F.Absd(a, b),
        E.Shl(h.u16(a), E.Cast(U16, s)),
        F.SaturatingAdd(a, b),
        h.select(E.LT(a, b), h.u16(a), h.u16(b) + 2),
    ]
    analyzer = BoundsAnalyzer()
    env = {"a": av, "b": bv, "s": sv}
    for e in exprs:
        iv = analyzer.bounds(e)
        v = evaluate_scalar(e, env)
        assert iv.lo <= v <= iv.hi, f"{e}: {v} not in {iv}"
