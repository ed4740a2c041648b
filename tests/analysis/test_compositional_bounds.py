"""The compositional-bounds memo: equal to its reference, and bounded.

``BoundsAnalyzer`` answers a compositional FPIR node (the shifts,
``mul_shr``, ``saturating_shl``) by walking its Table 1 expansion; the
answer is memoized by value.  These properties pin the memo to the
unmemoized expansion-based reference for every compositional class,
every valid operand-type combination and drawn operand intervals.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import fpir as F
from repro.analysis.intervals import (
    BoundsAnalyzer,
    Interval,
    _compositional_bounds,
    expansion_bounds,
)
from repro.fpir.semantics import expand_fully
from repro.ir import expr as E
from repro.ir.types import ARITH_TYPES, U16
from repro.lint.machinelint import MachineBoundsAnalyzer

#: the FPIR classes without a bespoke transfer function
COMPOSITIONAL = (
    F.WideningShl,
    F.WideningShr,
    F.RoundingShl,
    F.RoundingShr,
    F.MulShr,
    F.RoundingMulShr,
    F.SaturatingShl,
)


def valid_type_combos(cls):
    """Every operand-type tuple ``cls`` accepts and whose expansion is
    defined (a 64-bit ``rounding_mul_shr`` would need 256-bit lanes)."""
    combos = []
    for types in itertools.product(ARITH_TYPES, repeat=len(cls._fields)):
        args = [E.Var(t, f"v{i}") for i, t in enumerate(types)]
        try:
            expand_fully(cls(*args))
        except E.TypeError_:
            continue
        combos.append(types)
    return combos


_COMBOS = {cls: valid_type_combos(cls) for cls in COMPOSITIONAL}


def intervals_in(t):
    """A non-empty interval inside ``t``'s range."""
    ends = st.integers(t.min_value, t.max_value)
    return st.tuples(ends, ends).map(lambda p: Interval(min(p), max(p)))


@st.composite
def compositional_nodes(draw):
    """(node over fresh variables, their intervals, the var_bounds)."""
    cls = draw(st.sampled_from(COMPOSITIONAL))
    types = draw(st.sampled_from(_COMBOS[cls]))
    operands = tuple(draw(intervals_in(t)) for t in types)
    args = [E.Var(t, f"x{i}") for i, t in enumerate(types)]
    bounds = {v.name: iv for v, iv in zip(args, operands)}
    return cls(*args), operands, bounds


def test_every_compositional_class_has_type_combos():
    for cls in COMPOSITIONAL:
        assert _COMBOS[cls], cls.__name__


@settings(max_examples=150, deadline=None)
@given(drawn=compositional_nodes())
def test_memo_equals_expansion_reference(drawn):
    node, operands, bounds = drawn
    analyzer = BoundsAnalyzer(bounds)
    memoized = analyzer._fpir_bounds(node, node.type)
    assert memoized == expansion_bounds(node, operands)


@settings(max_examples=60, deadline=None)
@given(drawn=compositional_nodes())
def test_memo_ignores_variable_names(drawn):
    # Renamed inputs with the same types and intervals share one entry.
    node, operands, bounds = drawn
    first = BoundsAnalyzer(bounds)._fpir_bounds(node, node.type)
    renamed = node.with_children(
        [E.Var(c.type, c.name + "_r") for c in node.children]
    )
    before = _compositional_bounds.cache_info().hits
    again = BoundsAnalyzer(
        {k + "_r": v for k, v in bounds.items()}
    )._fpir_bounds(renamed, renamed.type)
    assert again == first
    assert _compositional_bounds.cache_info().hits == before + 1


@settings(max_examples=60, deadline=None)
@given(drawn=compositional_nodes())
def test_machine_analyzer_agrees_on_fpir(drawn):
    node, _operands, bounds = drawn
    # nest it under a bespoke-transfer op so both paths are exercised
    outer = F.SaturatingCast(node.type, node)
    for e in (node, outer):
        assert (
            MachineBoundsAnalyzer(bounds).bounds(e)
            == BoundsAnalyzer(bounds).bounds(e)
        )


def test_memo_size_stays_bounded():
    bound = _compositional_bounds.cache_info().maxsize
    assert bound is not None
    node = F.WideningShl(E.Var(U16, "x"), E.Var(U16, "y"))
    for hi in range(bound + 16):  # a distinct key per query
        BoundsAnalyzer({"x": Interval(0, hi)}).bounds(node)
    assert _compositional_bounds.cache_info().currsize <= bound


#: operand intervals that fit every arithmetic type
SHARED = (Interval(0, 100), Interval(0, 3), Interval(1, 1))


def test_key_separates_classes_and_types():
    # Every class and type combination queried with the same operand
    # intervals: a key missing the class or a type would answer one
    # combination with another's interval.
    for cls in COMPOSITIONAL:
        for types in _COMBOS[cls]:
            node = cls(*[E.Var(t, f"x{i}") for i, t in enumerate(types)])
            operands = SHARED[: len(types)]
            bounds = {f"x{i}": iv for i, iv in enumerate(operands)}
            got = BoundsAnalyzer(bounds)._fpir_bounds(node, node.type)
            assert got == expansion_bounds(node, operands), (cls, types)
