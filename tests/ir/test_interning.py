"""Hash-cons interning: structurally equal exprs are reference-equal."""

import pytest

from repro import fpir as F
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import U8, U16
from repro.trs.pattern import ConstWild, TVar, Wild

a = h.var("a", U8)
b = h.var("b", U8)


class TestInterning:
    def test_equal_constructions_are_identical(self):
        assert E.Add(a, b) is E.Add(a, b)
        assert h.u16(a) is h.u16(a)
        assert E.Const(U8, 7) is E.Const(U8, 7)

    def test_distinct_constructions_are_distinct(self):
        assert E.Add(a, b) is not E.Add(b, a)
        assert E.Const(U8, 7) is not E.Const(U16, 7)

    def test_nested_trees_share_identity(self):
        x = E.Min(E.Add(a, b), E.Max(a, b))
        y = E.Min(E.Add(a, b), E.Max(a, b))
        assert x is y
        assert x.children[0] is y.children[0]

    def test_fpir_nodes_intern_too(self):
        assert F.WideningAdd(a, b) is F.WideningAdd(a, b)

    def test_interned_nodes_marked_canonical(self):
        assert getattr(E.Add(a, b), "_canon", False)

    def test_equality_and_hash_still_structural(self):
        x, y = E.Add(a, b), E.Add(a, b)
        assert x == y and hash(x) == hash(y)
        assert x != E.Add(b, a)

    def test_with_children_rebuilds_interned(self):
        x = E.Add(a, b)
        assert x.with_children([a, b]) is x or x.with_children([a, b]) == x
        assert x.with_children([b, a]) is E.Add(b, a)


class TestPatternNodesNotInterned:
    """Wildcards carry per-rule type constraints their ``_key`` omits —
    interning them would conflate same-named wildcards across rules."""

    def test_wild_not_interned(self):
        T1, T2 = TVar("T", max_bits=16), TVar("T", max_bits=32)
        w1, w2 = Wild("x", T1), Wild("x", T2)
        assert w1 is not w2
        assert not getattr(w1, "_canon", False)

    def test_constwild_not_interned(self):
        assert ConstWild("c", U8) is not ConstWild("c", U8)

    def test_composite_over_wildcards_not_interned(self):
        T = TVar("T")
        pat = E.Add(Wild("x", T), Wild("y", T))
        assert not getattr(pat, "_canon", False)
        assert pat is not E.Add(Wild("x", T), Wild("y", T))


def _count_inits(monkeypatch, cls):
    """A one-item list counting runs of ``cls.__init__``."""
    calls = [0]
    real = cls.__init__

    def init(self, *args):
        calls[0] += 1
        real(self, *args)

    monkeypatch.setattr(cls, "__init__", init)
    return calls


class TestWithChildrenInternFirst:
    """``with_children`` looks the new key up before it builds: a hit
    returns the canonical node without running the constructor, and only
    a miss constructs, type-checks and interns."""

    def test_hit_skips_the_constructor(self, monkeypatch):
        x, y = E.Add(a, b), E.Add(b, a)
        inits = _count_inits(monkeypatch, E.BinaryOp)
        assert x.with_children([b, a]) is y
        assert x.with_children([a, b]) is x
        assert inits[0] == 0

    def test_miss_constructs_and_interns(self, monkeypatch):
        c = h.var("c_only_here", U8)
        x = E.Add(a, b)
        inits = _count_inits(monkeypatch, E.BinaryOp)
        built = x.with_children([a, c])
        assert inits[0] == 1
        assert built._canon and built is E.Add(a, c)

    def test_non_expr_fields_carry_over(self):
        w = h.var("w", U16)
        assert E.Cast(U16, a).with_children([b]) is E.Cast(U16, b)
        assert F.WideningAdd(a, b).with_children([b, b]) is F.WideningAdd(b, b)
        assert F.SaturatingCast(U8, w).with_children([w]) is (
            F.SaturatingCast(U8, w)
        )

    def test_wrong_arity_raises(self):
        x = E.Add(a, b)
        with pytest.raises(ValueError):
            x.with_children([a])
        with pytest.raises(ValueError):
            x.with_children([a, b, a])

    def test_ill_typed_children_raise(self):
        w = h.var("w_ill_typed", U16)
        with pytest.raises(E.TypeError_):
            E.Add(a, b).with_children([a, w])
        with pytest.raises(E.TypeError_):
            F.WideningAdd(a, b).with_children([w, a])

    def test_forged_node_rebuilds_canonical(self):
        forged = E.Add.__new__(E.Add)
        object.__setattr__(forged, "a", a)
        object.__setattr__(forged, "b", h.var("w_forged", U16))
        assert forged.with_children([b, a]) is E.Add(b, a)
        with pytest.raises(E.TypeError_):
            forged.with_children([a, h.var("w_forged", U16)])

    def test_pattern_children_stay_uninterned(self):
        T = TVar("T")
        pat = E.Add(a, b).with_children([Wild("x", T), b])
        assert not getattr(pat, "_canon", False)
        assert pat is not E.Add(Wild("x", T), b)
