"""Rule-index contract: the discrimination tree is a drop-in for the
linear scan + per-rule precheck it replaced.

The load-bearing property is *differential*: for any interned node, the
trie's candidate list equals the reference linear scan's — same rules, in
the same (priority) order — over every rulebase the pipeline actually
uses.  Everything else (wildcard bucketing, memoization, byte-identical
engine output) follows from that, but is pinned separately so a failure
names the broken layer.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro import fpir as F
from repro import rulesets
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import I16, U8, U16
from repro.lifting import Lifter
from repro.lifting.canonicalize import canonicalize
from repro.machine.lowerer import Lowerer
from repro.targets import ARM, HVX, X86
from repro.trs.index import ANY, RuleIndex
from repro.trs.pattern import ConstWild, Wild
from repro.trs.rule import Rule
from repro.workloads import WORKLOADS, by_name


def _gen_u8(rng, depth):
    """Random u8-typed expression (the robustness-fuzz shape family)."""
    if depth == 0:
        choice = rng.randrange(3)
        if choice < 2:
            return h.var(rng.choice("abcd"), U8)
        return h.const(U8, rng.randrange(256))
    op = rng.randrange(10)
    x, y = _gen_u8(rng, depth - 1), _gen_u8(rng, depth - 1)
    if op == 0:
        return h.u8((h.u16(x) + h.u16(y)) >> 1)
    if op == 1:
        return h.u8((h.u16(x) + h.u16(y) + 1) >> 1)
    if op == 2:
        return h.u8(h.minimum(h.u16(x) + h.u16(y), 255))
    if op == 3:
        return h.u8(h.minimum(h.u16(x) * rng.choice([2, 3, 4, 8]), 255))
    if op == 4:
        return h.maximum(x, y)
    if op == 5:
        return h.minimum(x, y)
    if op == 6:
        return h.select(E.GT(x, y), x - y, y - x)
    if op == 7:
        return x ^ y
    if op == 8:
        return h.u8((h.u16(x) + h.u16(y) + 2) >> 2)
    return F.SaturatingSub(x, y)


LIFT_INDEX = Lifter().engine.index
LOWER_INDEXES = [
    Lowerer(t, rulesets.pitchfork(t).lower).engine.index
    for t in (X86, ARM, HVX)
]


def _assert_differential(index: RuleIndex, expr):
    for node in expr.walk():
        assert index.candidates(node) == index.candidates_linear(node)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_trie_matches_linear_scan_on_random_exprs(seed):
    rng = random.Random(seed)
    expr = canonicalize(_gen_u8(rng, rng.randint(1, 3)))
    _assert_differential(LIFT_INDEX, expr)
    # Lift to FPIR so the lowering indexes see realistic shapes too.
    lifted = Lifter().rewrite(expr).expr
    for index in LOWER_INDEXES:
        _assert_differential(index, lifted)


@pytest.mark.parametrize("name", WORKLOADS)
def test_trie_matches_linear_scan_on_the_suite(name):
    wl = by_name(name)
    expr = canonicalize(wl.expr)
    _assert_differential(LIFT_INDEX, expr)
    lifted = Lifter().rewrite(expr).expr
    for index in LOWER_INDEXES:
        _assert_differential(index, lifted)


class TestWildcardBuckets:
    """Wildcard-rooted rules fold into every applicable query result."""

    def _rules(self):
        x, y = Wild("x", I16), Wild("y", I16)
        return [
            Rule("add-wild", E.Add(x, y), E.Add(y, x)),
            Rule("any-root", Wild("z", I16), Wild("z", I16)),
            Rule(
                "const-root", ConstWild("c", I16), ConstWild("c", I16)
            ),
            Rule(
                "add-const",
                E.Add(Wild("a", I16), ConstWild("k", I16)),
                Wild("a", I16),
            ),
        ]

    def test_wild_bucket_reaches_every_node(self):
        idx = RuleIndex(self._rules())
        names = [r.name for r in idx.candidates(h.var("v", I16))]
        assert names == ["any-root"]

    def test_const_bucket_reaches_only_const_nodes(self):
        idx = RuleIndex(self._rules())
        names = [r.name for r in idx.candidates(h.const(I16, 7))]
        assert names == ["any-root", "const-root"]

    def test_child_symbols_discriminate(self):
        idx = RuleIndex(self._rules())
        v = h.var("v", I16)
        var_add = [r.name for r in idx.candidates(E.Add(v, v))]
        # add-const requires a Const second child; the trie prunes it.
        assert var_add == ["add-wild", "any-root"]
        const_add = [
            r.name for r in idx.candidates(E.Add(v, h.const(I16, 3)))
        ]
        assert const_add == ["add-wild", "any-root", "add-const"]

    def test_priority_order_is_rulebase_order(self):
        # Candidates from the trie leaves and both buckets interleave by
        # original position, not by bucket.
        x = Wild("x", I16)
        rules = [
            Rule("first", E.Add(x, Wild("y", I16)), x),
            Rule("second", Wild("z", I16), Wild("z", I16)),
            Rule(
                "third",
                E.Add(Wild("a", I16), Wild("b", I16)),
                Wild("a", I16),
            ),
        ]
        idx = RuleIndex(rules)
        v = h.var("v", I16)
        names = [r.name for r in idx.candidates(E.Add(v, v))]
        assert names == ["first", "second", "third"]


class TestMemoization:
    def test_same_shape_returns_identical_tuple(self):
        idx = RuleIndex(Lifter().engine.rules)
        a = E.Add(h.var("a", U16), h.var("b", U16))
        b = E.Add(h.var("c", U16), h.var("d", U16))
        assert idx.shape_of(a) == idx.shape_of(b)
        assert idx.candidates(a) is idx.candidates(b)

    def test_engine_reference_path_selectable(self):
        from repro.trs.rewriter import RewriteEngine

        rules = Lifter().engine.rules
        indexed = RewriteEngine(rules, require_cost_decrease=True)
        linear = RewriteEngine(
            rules, require_cost_decrease=True, use_index=False
        )
        expr = canonicalize(by_name("sobel3x3").expr)
        assert (
            indexed.rewrite(expr).expr == linear.rewrite(expr).expr
        )
