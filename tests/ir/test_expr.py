"""Unit tests for core IR expression nodes."""

import pytest

from repro.ir import expr as E
from repro.ir import builders as h
from repro.ir.types import BOOL, I8, I16, U8, U16


@pytest.fixture
def a():
    return h.var("a", U8)


@pytest.fixture
def b():
    return h.var("b", U8)


class TestConstruction:
    def test_const_wraps_on_entry(self):
        assert E.Const(U8, 256).value == 0
        assert E.Const(I8, 255).value == -1

    def test_const_rejects_non_int(self):
        with pytest.raises(TypeError):
            E.Const(U8, "nope")

    def test_var_type(self, a):
        assert a.type == U8 and a.name == "a"

    def test_binary_requires_same_type(self, a):
        c = h.var("c", U16)
        with pytest.raises(E.TypeError_):
            E.Add(a, c)

    def test_shift_allows_sign_mismatch(self, a):
        s = h.var("s", I8)
        assert E.Shl(a, s).type == U8

    def test_shift_rejects_width_mismatch(self, a):
        s = h.var("s", I16)
        with pytest.raises(E.TypeError_):
            E.Shl(a, s)

    def test_cmp_returns_bool(self, a, b):
        assert E.LT(a, b).type == BOOL

    def test_select_needs_bool_cond(self, a, b):
        with pytest.raises(E.TypeError_):
            E.Select(a, a, b)
        sel = E.Select(E.LT(a, b), a, b)
        assert sel.type == U8

    def test_select_branches_must_match(self, a, b):
        with pytest.raises(E.TypeError_):
            E.Select(E.LT(a, b), a, h.var("w", U16))

    def test_reinterpret_width_check(self, a):
        assert E.Reinterpret(I8, a).type == I8
        with pytest.raises(E.TypeError_):
            E.Reinterpret(I16, a)

    def test_cast_to_bool_rejected(self, a):
        with pytest.raises(E.TypeError_):
            E.Cast(BOOL, a)

    def test_arith_rejects_bool(self, a, b):
        cond = E.LT(a, b)
        with pytest.raises(E.TypeError_):
            E.Add(cond, cond)

    def test_min_accepts_any_matching(self, a, b):
        assert E.Min(a, b).type == U8

    def test_neg_rejects_bool(self, a, b):
        with pytest.raises(E.TypeError_):
            E.Neg(E.LT(a, b))

    def test_not_requires_bool(self, a, b):
        assert E.Not(E.LT(a, b)).type == BOOL
        with pytest.raises(E.TypeError_):
            E.Not(a)


class TestIdentity:
    def test_structural_equality(self, a, b):
        assert E.Add(a, b) == E.Add(a, b)
        assert E.Add(a, b) != E.Add(b, a)
        assert hash(E.Add(a, b)) == hash(E.Add(a, b))

    def test_different_classes_differ(self, a, b):
        assert E.Add(a, b) != E.Sub(a, b)

    def test_const_identity(self):
        assert E.Const(U8, 3) == E.Const(U8, 3)
        assert E.Const(U8, 3) != E.Const(I8, 3)
        assert E.Const(U8, 3) != E.Const(U8, 4)

    def test_immutable(self, a):
        with pytest.raises(AttributeError):
            a.name = "z"

    def test_usable_in_sets(self, a, b):
        s = {E.Add(a, b), E.Add(a, b), E.Sub(a, b)}
        assert len(s) == 2


class TestStructure:
    def test_children(self, a, b):
        assert E.Add(a, b).children == (a, b)
        assert E.Const(U8, 1).children == ()
        sel = E.Select(E.LT(a, b), a, b)
        assert len(sel.children) == 3

    def test_with_children(self, a, b):
        e = E.Add(a, b)
        e2 = e.with_children([b, a])
        assert e2 == E.Add(b, a)

    def test_with_children_preserves_non_expr_fields(self, a):
        e = E.Cast(U16, a)
        e2 = e.with_children([h.var("z", U8)])
        assert e2.to == U16

    def test_with_children_arity_check(self, a, b):
        with pytest.raises(ValueError):
            E.Add(a, b).with_children([a, b, a])
        with pytest.raises(ValueError):
            E.Add(a, b).with_children([a])

    def test_size(self, a, b):
        assert a.size == 1
        assert E.Add(a, b).size == 3
        assert E.Add(E.Add(a, b), E.Const(U8, 1)).size == 5

    def test_walk_post_order(self, a, b):
        e = E.Add(a, b)
        nodes = list(e.walk())
        assert nodes == [a, b, e]

    def test_free_vars(self, a, b):
        e = E.Add(E.Mul(a, b), a)
        assert E.free_vars(e) == (a, b)


class TestOperatorSugar:
    def test_int_coercion(self, a):
        e = a + 1
        assert isinstance(e, E.Add)
        assert e.b == E.Const(U8, 1)

    def test_all_operators(self, a, b):
        assert isinstance(a - b, E.Sub)
        assert isinstance(a * 2, E.Mul)
        assert isinstance(a // b, E.Div)
        assert isinstance(a % b, E.Mod)
        assert isinstance(a << 1, E.Shl)
        assert isinstance(a >> 1, E.Shr)
        assert isinstance(a & b, E.BitAnd)
        assert isinstance(a | b, E.BitOr)
        assert isinstance(a ^ b, E.BitXor)
        assert isinstance(-a, E.Neg)


class TestBuilders:
    def test_cast_skips_identity(self, a):
        assert h.u8(a) is a
        assert isinstance(h.u16(a), E.Cast)

    def test_cast_of_int_is_const(self):
        assert h.u16(300) == E.Const(U16, 300)

    def test_clamp(self, a):
        e = h.clamp(h.u16(a), 10, 20)
        assert isinstance(e, E.Min)
        assert isinstance(e.a, E.Max)

    def test_minimum_coerces_int(self, a):
        e = h.minimum(a, 255)
        assert e.b == E.Const(U8, 255)

    def test_pair_rejects_two_ints(self):
        with pytest.raises(TypeError):
            h.minimum(1, 2)
