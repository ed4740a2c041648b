"""Core vector-IR expression nodes.

This is the fragment of Halide IR that PITCHFORK consumes: already-vectorized
integer expressions built from primitive arithmetic, comparisons, selects and
casts.  Every node is immutable and hash-consed: constructing a node returns
the canonical instance for its structure, so structurally-equal expressions
are reference-equal and the term-rewriting engine detects fixed points, hits
memo caches, and value-numbers programs in O(1) per node.

Semantics follow Halide's documented integer semantics:

* all arithmetic wraps (two's complement) at the element type's width;
* division rounds toward negative infinity and ``x / 0 == 0``;
* ``x % 0 == 0`` and otherwise ``x % y`` has the sign of ``y`` (Euclidean);
* a shift by a *negative* amount shifts in the opposite direction;
* shifts by amounts >= the bit-width saturate the shift distance (left
  shift produces 0; arithmetic right shift produces the sign; logical
  right shift produces 0).

Type rules are deliberately strict: binary arithmetic requires equal operand
types (shifts additionally allow a signedness mismatch on the shift amount,
as in ``rounding_shr(x_u16, y_i16)``), and all conversions are explicit via
:class:`Cast` / :class:`Reinterpret`.  Pattern nodes used by the rewriter
(:mod:`repro.trs.pattern`) subclass :class:`Expr` and may carry *symbolic*
types; validation is therefore skipped whenever an operand's type is not yet
concrete.
"""

from __future__ import annotations

import operator
import weakref
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .types import BOOL, ScalarType

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Cast",
    "Reinterpret",
    "Neg",
    "Not",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Mod",
    "Min",
    "Max",
    "Shl",
    "Shr",
    "BitAnd",
    "BitOr",
    "BitXor",
    "CmpOp",
    "LT",
    "LE",
    "GT",
    "GE",
    "EQ",
    "NE",
    "Select",
    "TypeError_",
]


class TypeError_(TypeError):
    """Raised when an expression is constructed with ill-typed operands."""


def _is_concrete(t: object) -> bool:
    return isinstance(t, ScalarType)


#: Hash-cons table: structural key -> the canonical node for that key.
#: Weak on the values so expressions die with their last outside reference.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: Slots that read as ``None`` while unset: the per-node caches of derived
#: data and the interned flag.
_CACHE_SLOTS = frozenset(("_hash", "_size", "_cost", "_type_memo", "_canon"))


def _fields_reader(fields: Tuple[str, ...]) -> Callable[["Expr"], tuple]:
    """A function returning a node's ``fields`` values as one tuple."""
    if len(fields) > 1:
        return operator.attrgetter(*fields)  # reads every field in C
    if fields:
        get = operator.attrgetter(fields[0])
        return lambda node: (get(node),)
    return lambda node: ()


class _ExprMeta(type):
    """Metaclass implementing hash-cons interning of expression nodes.

    Constructing a node returns *the* canonical instance for its structural
    key, so structurally-equal expressions are reference-equal.  That makes
    fixed-point checks, cache lookups and value numbering O(1) per node —
    the foundation of the memoized compile pipeline.

    A node is interned only when its class opts in (``_internable``, off
    for the rewriter's pattern leaves whose ``_key`` deliberately omits
    their type pattern) and every child is itself canonical (rule patterns
    embed wildcard leaves in otherwise-concrete nodes).

    Each class gets a ``_field_values`` reader over its ``_fields``; one
    read per construction yields both the node's ``children`` and its
    intern key.
    """

    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        cls._field_values = staticmethod(_fields_reader(cls._fields))

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        values = cls._field_values(obj)
        kids = tuple([v for v in values if isinstance(v, Expr)])
        if cls._internable and all([c._canon for c in kids]):
            key = (cls,) + values
            try:
                canon = _INTERN.get(key)
            except TypeError:  # unhashable field value: skip interning
                pass
            else:
                if canon is not None:
                    return canon
                setattr_ = object.__setattr__
                setattr_(obj, "children", kids)
                setattr_(obj, "_hash", None)
                setattr_(obj, "_size", None)
                setattr_(obj, "_cost", None)
                setattr_(obj, "_type_memo", None)
                setattr_(obj, "_canon", True)
                _INTERN[key] = obj
                return obj
        object.__setattr__(obj, "children", kids)
        object.__setattr__(obj, "_canon", False)
        return obj


class Expr(metaclass=_ExprMeta):
    """Base class for all IR nodes (core IR, FPIR, patterns, target ops).

    Subclasses define ``_fields``: the constructor-argument names in order.
    Fields whose values are :class:`Expr` instances are the node's
    ``children``, a plain slot filled once when the node is built.

    Instances are immutable and hash-consed (see :class:`_ExprMeta`).  The
    ``_hash``/``_size``/``_cost``/``_type_memo`` slots cache per-node
    derived data; a new canonical node starts them at ``None`` and each is
    filled on first use.  A subclass computes its element type in
    ``_compute_type``, and :attr:`type` caches it.
    """

    __slots__ = (
        "children", "_hash", "_size", "_cost", "_type_memo", "_canon",
        "__weakref__",
    )

    _fields: Tuple[str, ...] = ()

    #: classes may opt out of hash-cons interning (pattern leaves do)
    _internable = True

    def __getattr__(self, name: str):
        # Reached only for an unset slot: a node built without its
        # constructor (``cls.__new__`` plus ``object.__setattr__``, as a
        # buggy pass or a test forging an ill-typed tree would), or an
        # un-interned node whose caches are not filled yet.
        if name == "children":
            kids = tuple(
                v for v in self._field_values(self) if isinstance(v, Expr)
            )
            object.__setattr__(self, "children", kids)
            return kids
        if name in _CACHE_SLOTS:
            return None
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- identity ------------------------------------------------------
    def _key(self) -> tuple:
        return (type(self),) + self._field_values(self)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        # Two distinct canonical (interned) nodes are never equal.
        if self._canon and other._canon:  # type: ignore[union-attr]
            return False
        if hash(self) != hash(other):
            return False
        return self._key() == other._key()  # type: ignore[union-attr]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- structure -----------------------------------------------------
    @property
    def type(self) -> ScalarType:
        """Element type of this expression (may be symbolic in patterns)."""
        t = self._type_memo
        if t is None:
            t = self._compute_type()
            object.__setattr__(self, "_type_memo", t)
        return t

    def _compute_type(self) -> ScalarType:
        raise NotImplementedError

    def with_children(self, new_children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with replacement children (same arity).

        Intern first: when the class interns and every new child is
        canonical, the new key is looked up before anything is built, and
        an existing canonical node is returned as it is.  Its constructor
        already accepted exactly these field values, so skipping it
        cannot skip a type error.  Only a miss runs the constructor.
        """
        it = iter(new_children)
        args = []
        canon = True
        for v in self._field_values(self):
            if isinstance(v, Expr):
                v = next(it, None)
                if v is None:
                    raise ValueError("too few replacement children")
                if canon and not (isinstance(v, Expr) and v._canon):
                    canon = False
            args.append(v)
        if next(it, None) is not None:
            raise ValueError("too many replacement children")
        cls = type(self)
        if canon and cls._internable:
            try:
                hit = _INTERN.get((cls, *args))
            except TypeError:  # unhashable field value: never interned
                hit = None
            if hit is not None:
                return hit
        return cls(*args)

    def walk(self) -> Iterator["Expr"]:
        """Yield every node in the tree, post-order."""
        for c in self.children:
            yield from c.walk()
        yield self

    @property
    def size(self) -> int:
        """Number of IR nodes in this tree (used by the §4 enumerators)."""
        s = self._size
        if s is None:
            s = 1 + sum(c.size for c in self.children)
            object.__setattr__(self, "_size", s)
        return s

    # -- display -------------------------------------------------------
    def __repr__(self) -> str:
        from .printer import to_string

        return to_string(self)

    # -- operator sugar (concrete expressions only) ---------------------
    def __add__(self, other: "Expr") -> "Expr":
        return Add(self, _coerce(other, self))

    def __sub__(self, other: "Expr") -> "Expr":
        return Sub(self, _coerce(other, self))

    def __mul__(self, other: "Expr") -> "Expr":
        return Mul(self, _coerce(other, self))

    def __floordiv__(self, other: "Expr") -> "Expr":
        return Div(self, _coerce(other, self))

    def __mod__(self, other: "Expr") -> "Expr":
        return Mod(self, _coerce(other, self))

    def __lshift__(self, other: "Expr") -> "Expr":
        return Shl(self, _coerce(other, self))

    def __rshift__(self, other: "Expr") -> "Expr":
        return Shr(self, _coerce(other, self))

    def __and__(self, other: "Expr") -> "Expr":
        return BitAnd(self, _coerce(other, self))

    def __or__(self, other: "Expr") -> "Expr":
        return BitOr(self, _coerce(other, self))

    def __xor__(self, other: "Expr") -> "Expr":
        return BitXor(self, _coerce(other, self))

    def __neg__(self) -> "Expr":
        return Neg(self)


def _coerce(value: object, like: Expr) -> Expr:
    """Allow ``expr + 3`` by broadcasting the int to ``expr``'s type."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, int) and _is_concrete(like.type):
        return Const(like.type, value)
    raise TypeError_(f"cannot coerce {value!r} to an expression")


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
class Const(Expr):
    """A scalar constant broadcast across all lanes (Figure 2's ``x(c)``).

    The stored value is always in-range for the type (wrapped on entry).
    """

    __slots__ = ("_type", "value")
    _fields = ("_type", "value")

    def __init__(self, type_: ScalarType, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            if isinstance(value, bool):
                value = int(value)
            else:
                raise TypeError_(f"Const value must be int, got {value!r}")
        object.__setattr__(self, "_type", type_)
        object.__setattr__(
            self, "value", type_.wrap(value) if _is_concrete(type_) else value
        )

    def _compute_type(self) -> ScalarType:
        return self._type


class Var(Expr):
    """A named input vector (an already-loaded operand, e.g. ``a_u8``)."""

    __slots__ = ("_type", "name")
    _fields = ("_type", "name")

    def __init__(self, type_: ScalarType, name: str):
        object.__setattr__(self, "_type", type_)
        object.__setattr__(self, "name", name)

    def _compute_type(self) -> ScalarType:
        return self._type


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
class Cast(Expr):
    """Numeric conversion with two's-complement wrapping on narrowing."""

    __slots__ = ("to", "value")
    _fields = ("to", "value")

    def __init__(self, to: ScalarType, value: Expr):
        if _is_concrete(to) and to.is_bool:
            raise TypeError_("cannot Cast to bool; use a comparison")
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "value", value)

    def _compute_type(self) -> ScalarType:
        return self.to


class Reinterpret(Expr):
    """Bit-level reinterpretation between same-width types."""

    __slots__ = ("to", "value")
    _fields = ("to", "value")

    def __init__(self, to: ScalarType, value: Expr):
        vt = value.type
        if _is_concrete(to) and _is_concrete(vt) and to.bits != vt.bits:
            raise TypeError_(f"reinterpret {vt} -> {to}: width mismatch")
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "value", value)

    def _compute_type(self) -> ScalarType:
        return self.to


# ----------------------------------------------------------------------
# Unary
# ----------------------------------------------------------------------
class Neg(Expr):
    """Two's-complement negation (wraps at the type's extreme)."""

    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Expr):
        t = value.type
        if _is_concrete(t) and t.is_bool:
            raise TypeError_("cannot negate bool")
        object.__setattr__(self, "value", value)

    def _compute_type(self) -> ScalarType:
        return self.value.type


class Not(Expr):
    """Boolean negation (operand must be bool)."""

    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Expr):
        t = value.type
        if _is_concrete(t) and not t.is_bool:
            raise TypeError_(f"Not requires bool, got {t}")
        object.__setattr__(self, "value", value)

    def _compute_type(self) -> ScalarType:
        return BOOL


# ----------------------------------------------------------------------
# Binary arithmetic
# ----------------------------------------------------------------------
class BinaryOp(Expr):
    """Base for same-type binary arithmetic; result type is the lhs type."""

    __slots__ = ("a", "b")
    _fields = ("a", "b")

    #: set on subclasses that permit a signedness mismatch (shifts)
    _allow_sign_mismatch = False
    #: set on subclasses whose operands must not be bool
    _arith_only = True

    def __init__(self, a: Expr, b: Expr):
        # Ergonomics: allow plain ints wherever one side fixes the type.
        if isinstance(b, int) and isinstance(a, Expr):
            b = _coerce(b, a)
        elif isinstance(a, int) and isinstance(b, Expr):
            a = _coerce(a, b)
        ta, tb = a.type, b.type
        if _is_concrete(ta) and _is_concrete(tb):
            if self._arith_only and (ta.is_bool or tb.is_bool):
                raise TypeError_(
                    f"{type(self).__name__} does not accept bool operands"
                )
            if self._allow_sign_mismatch:
                if ta.bits != tb.bits:
                    raise TypeError_(
                        f"{type(self).__name__}: width mismatch {ta} vs {tb}"
                    )
            elif ta != tb:
                raise TypeError_(
                    f"{type(self).__name__}: type mismatch {ta} vs {tb}"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _compute_type(self) -> ScalarType:
        return self.a.type


class Add(BinaryOp):
    """Wrapping addition."""


class Sub(BinaryOp):
    """Wrapping subtraction."""


class Mul(BinaryOp):
    """Wrapping multiplication."""


class Div(BinaryOp):
    """Division rounding toward negative infinity; ``x / 0 == 0``."""


class Mod(BinaryOp):
    """Euclidean remainder; ``x % 0 == 0``."""


class Min(BinaryOp):
    """Lane-wise minimum."""

    _arith_only = False


class Max(BinaryOp):
    """Lane-wise maximum."""

    _arith_only = False


class Shl(BinaryOp):
    """Shift left; a negative amount shifts right instead (Halide rule)."""

    _allow_sign_mismatch = True


class Shr(BinaryOp):
    """Shift right (arithmetic if signed); negative amount shifts left."""

    _allow_sign_mismatch = True


class BitAnd(BinaryOp):
    """Bitwise AND (also serves as logical AND on bool)."""

    _arith_only = False


class BitOr(BinaryOp):
    """Bitwise OR (also serves as logical OR on bool)."""

    _arith_only = False


class BitXor(BinaryOp):
    """Bitwise XOR."""

    _arith_only = False


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
class CmpOp(BinaryOp):
    """Base for comparisons; result type is bool."""

    _arith_only = False

    def _compute_type(self) -> ScalarType:
        return BOOL


class LT(CmpOp):
    """a < b"""


class LE(CmpOp):
    """a <= b"""


class GT(CmpOp):
    """a > b"""


class GE(CmpOp):
    """a >= b"""


class EQ(CmpOp):
    """a == b"""


class NE(CmpOp):
    """a != b"""


# ----------------------------------------------------------------------
# Select
# ----------------------------------------------------------------------
class Select(Expr):
    """Lane-wise conditional: ``cond ? t : f`` with a bool condition."""

    __slots__ = ("cond", "t", "f")
    _fields = ("cond", "t", "f")

    def __init__(self, cond: Expr, t: Expr, f: Expr):
        ct = cond.type
        if _is_concrete(ct) and not ct.is_bool:
            raise TypeError_(f"Select condition must be bool, got {ct}")
        tt, ft = t.type, f.type
        if _is_concrete(tt) and _is_concrete(ft) and tt != ft:
            raise TypeError_(f"Select branches differ: {tt} vs {ft}")
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f", f)

    def _compute_type(self) -> ScalarType:
        return self.t.type


def free_vars(expr: Expr) -> Tuple[Var, ...]:
    """All distinct :class:`Var` leaves, in first-occurrence order."""
    seen: dict = {}
    for node in expr.walk():
        if isinstance(node, Var) and node not in seen:
            seen[node] = None
    return tuple(seen)
