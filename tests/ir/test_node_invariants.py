"""IR-core invariants over every node class.

A node's ``children``, intern key and type are computed once, when it
is built, and ``hash``/``size``/``type`` are cached in slots.  Each
cached value must equal a from-scratch computation, and a node forged
without its constructor (``cls.__new__`` plus ``object.__setattr__``,
as the lint tests build ill-typed trees) must read the same values as
its constructed twin.
"""

import pytest

from repro import fpir as F
from repro.ir import expr as E
from repro.ir.types import I8, U8, U16
from repro.targets.isa import (
    InstrSpec,
    TargetOp1,
    TargetOp2,
    TargetOp3,
    TargetOp4,
    TargetOp5,
)
from repro.trs.pattern import (
    ConstWild,
    PConst,
    TVar,
    TWiden,
    TypePattern,
    Wild,
)

X8, Y8 = E.Var(U8, "x"), E.Var(U8, "y")
S8 = E.Var(I8, "s")
W16 = E.Var(U16, "w")
C3 = E.Const(U8, 3)
COND = E.LT(X8, Y8)
SPEC = InstrSpec("probe", "test", 1.0, semantics=lambda *ops: ops[0])


def _core():
    nodes = [C3, X8, E.Cast(U16, X8), E.Reinterpret(I8, X8), E.Neg(S8),
             E.Not(COND), E.Select(COND, X8, Y8)]
    binary = [getattr(E, n) for n in E.__all__
              if isinstance(getattr(E, n), type)
              and issubclass(getattr(E, n), E.BinaryOp)
              and getattr(E, n) not in (E.BinaryOp, E.CmpOp)]
    nodes += [cls(X8, Y8) for cls in binary]
    return nodes


def _fpir():
    """One well-typed instance of every FPIR class, over fixed inputs."""
    by_arity = {
        1: [(X8,), (S8,), (W16,)],
        2: [(X8, Y8), (W16, X8)],
        3: [(X8, Y8, C3)],
    }
    nodes = []
    for cls in F.FPIR_OPS.values():
        if cls is F.SaturatingCast:
            nodes.append(F.SaturatingCast(U8, W16))
            continue
        for args in by_arity[len(cls._fields)]:
            try:
                nodes.append(cls(*args))
                break
            except E.TypeError_:
                continue
        else:
            raise AssertionError(f"no sample for {cls.__name__}")
    return nodes


def _target_ops():
    return [
        TargetOp1(SPEC, U8, X8),
        TargetOp2(SPEC, U8, X8, Y8),
        TargetOp3(SPEC, U8, X8, Y8, C3),
        TargetOp4(SPEC, U16, X8, Y8, C3, W16),
        TargetOp5(SPEC, U16, X8, Y8, C3, W16, X8),
    ]


T = TVar("T", signed=False)
PATTERN_LEAVES = [Wild("p", T), ConstWild("c0", T), PConst(T, 1)]
PATTERN_TREES = [
    E.Add(Wild("p", T), Wild("q", T)),
    F.WideningAdd(Wild("p", T), ConstWild("c0", T)),
    E.Cast(TWiden(T), Wild("p", T)),
]

NODES = _core() + _fpir() + _target_ops() + PATTERN_LEAVES + PATTERN_TREES


def _id(node):
    return type(node).__name__


def _field_values(node):
    return tuple(getattr(node, f) for f in type(node)._fields)


def _size(node):
    return 1 + sum(
        _size(v) for v in _field_values(node) if isinstance(v, E.Expr)
    )


def _type_text(t):
    """Symbolic (pattern) types compare by identity; compare their text."""
    return t.show() if isinstance(t, TypePattern) else t


def forge(node):
    """``node``'s twin built without its constructor."""
    twin = type(node).__new__(type(node))
    for f in type(node)._fields:
        object.__setattr__(twin, f, getattr(node, f))
    return twin


def test_every_class_is_covered():
    classes = {type(n) for n in NODES}
    assert set(F.FPIR_OPS.values()) <= classes
    for cls in (TargetOp1, TargetOp2, TargetOp3, TargetOp4, TargetOp5,
                Wild, ConstWild, PConst):
        assert cls in classes
    for name in E.__all__:
        cls = getattr(E, name)
        if (isinstance(cls, type) and issubclass(cls, E.Expr)
                and cls not in (E.Expr, E.BinaryOp, E.CmpOp)):
            assert cls in classes, name


@pytest.mark.parametrize("node", NODES, ids=_id)
class TestCachedEqualsFromScratch:
    def test_children_are_expr_fields_in_order(self, node):
        expected = tuple(
            v for v in _field_values(node) if isinstance(v, E.Expr)
        )
        assert node.children == expected
        assert all(a is b for a, b in zip(node.children, expected))

    def test_cached_type_equals_recomputation(self, node):
        first = node.type
        assert node.type is first  # cached
        fresh = type(node)._compute_type(node)
        assert _type_text(fresh) == _type_text(first)

    def test_hash_and_size(self, node):
        assert hash(node) == hash(node._key())
        if not isinstance(node, (Wild, ConstWild, PConst)):
            # pattern leaves key on their name, not every field
            assert node._key() == (type(node),) + _field_values(node)
        assert node.size == _size(node)

    def test_forged_twin_reads_the_same(self, node):
        twin = forge(node)
        assert twin.children == node.children
        assert twin.size == node.size
        assert hash(twin) == hash(node)
        assert _type_text(twin.type) == _type_text(node.type)
        assert twin == node


@pytest.mark.parametrize("node", PATTERN_LEAVES + PATTERN_TREES, ids=_id)
def test_patterns_stay_uninterned_with_structural_identity(node):
    twin = type(node)(*_field_values(node))
    assert twin is not node
    assert twin == node and hash(twin) == hash(node)


def test_concrete_nodes_are_interned():
    for node in _core() + _fpir() + _target_ops():
        assert type(node)(*_field_values(node)) is node, _id(node)


def test_distinct_patterns_differ():
    assert Wild("p", T) != Wild("q", T)
    assert E.Add(Wild("p", T), Wild("q", T)) != E.Add(
        Wild("q", T), Wild("p", T)
    )


def test_forged_ill_typed_node():
    # the lint tests' forged trees: no constructor ran, no slot was set
    bad = E.Add.__new__(E.Add)
    object.__setattr__(bad, "a", X8)
    object.__setattr__(bad, "b", W16)
    assert bad.children == (X8, W16)
    assert bad.type == U8 and bad.size == 3
    assert hash(bad) == hash((E.Add, X8, W16))
    with pytest.raises(AttributeError):
        bad.no_such_field

