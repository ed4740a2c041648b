"""Patterns for the term-rewriting engine: typed wildcards and type variables.

A *pattern* is an ordinary expression tree that may additionally contain:

* :class:`Wild` leaves — match any subexpression whose type satisfies the
  wildcard's :class:`TypePattern`; repeated names must match equal subtrees;
* :class:`ConstWild` leaves — like :class:`Wild` but match only broadcast
  constants (the paper's ``c0`` wildcards);
* symbolic types — a :class:`TypePattern` may appear anywhere a concrete
  :class:`~repro.ir.types.ScalarType` could (a wildcard's type, a ``Cast``'s
  target, a constant's type), and is unified against concrete types during
  matching.

This gives the polymorphic rules of §3.2 ("many of these rules are
polymorphic in nature") directly: one rule object covers every type/sign
combination its type variables admit.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..ir.expr import Const, Expr
from ..ir.types import ScalarType

__all__ = [
    "TypePattern",
    "TVar",
    "TWiden",
    "TNarrow",
    "TWithSign",
    "Wild",
    "ConstWild",
    "PConst",
    "resolve_type",
    "TypeEnv",
]

TypeEnv = Dict[str, ScalarType]


class TypePattern:
    """Base class for symbolic types."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.show()

    def show(self) -> str:
        raise NotImplementedError


class TVar(TypePattern):
    """A type variable, optionally constrained.

    ``signed`` restricts signedness (None = either); ``min_bits`` /
    ``max_bits`` restrict the width, e.g. ``max_bits=32`` for "widenable on
    real hardware".
    """

    def __init__(
        self,
        name: str,
        signed: Optional[bool] = None,
        min_bits: int = 8,
        max_bits: int = 64,
    ):
        self.name = name
        self.signed = signed
        self.min_bits = min_bits
        self.max_bits = max_bits

    def admits(self, t: ScalarType) -> bool:
        if t.is_bool:
            return False
        if self.signed is not None and t.signed != self.signed:
            return False
        return self.min_bits <= t.bits <= self.max_bits

    def show(self) -> str:
        return self.name


class TWiden(TypePattern):
    """The widened form of another type pattern (``widen(T)``)."""

    def __init__(self, inner: TypePattern):
        self.inner = inner

    def show(self) -> str:
        return f"widen({self.inner.show()})"


class TNarrow(TypePattern):
    """The narrowed form of another type pattern."""

    def __init__(self, inner: TypePattern):
        self.inner = inner

    def show(self) -> str:
        return f"narrow({self.inner.show()})"


class TWithSign(TypePattern):
    """Another type pattern with its signedness overridden.

    When *matching*, the inner pattern should be sign-constrained (a TVar
    with ``signed=`` set, possibly under TWiden): a bare ``TWithSign(T,
    True)`` against ``i16`` is ambiguous (u8-widened or i8-widened?) and
    the matcher commits to the first sign that unifies locally.
    """

    def __init__(self, inner: TypePattern, signed: bool):
        self.inner = inner
        self.signed = signed

    def show(self) -> str:
        return f"{'signed' if self.signed else 'unsigned'}({self.inner.show()})"


def resolve_type(
    tp: Union[ScalarType, TypePattern], tenv: TypeEnv
) -> ScalarType:
    """Resolve a (possibly symbolic) type against bound type variables."""
    if isinstance(tp, ScalarType):
        return tp
    if isinstance(tp, TVar):
        try:
            return tenv[tp.name]
        except KeyError:
            raise KeyError(f"unbound type variable {tp.name}") from None
    if isinstance(tp, TWiden):
        return resolve_type(tp.inner, tenv).widen()
    if isinstance(tp, TNarrow):
        return resolve_type(tp.inner, tenv).narrow()
    if isinstance(tp, TWithSign):
        return resolve_type(tp.inner, tenv).with_signed(tp.signed)
    raise TypeError(f"not a type pattern: {tp!r}")


def unify_type(
    tp: Union[ScalarType, TypePattern], t: ScalarType, tenv: TypeEnv
) -> bool:
    """Unify pattern ``tp`` with concrete type ``t``, extending ``tenv``."""
    if isinstance(tp, ScalarType):
        return tp == t
    if isinstance(tp, TVar):
        bound = tenv.get(tp.name)
        if bound is not None:
            return bound == t
        if not tp.admits(t):
            return False
        tenv[tp.name] = t
        return True
    if isinstance(tp, TWiden):
        if not t.can_narrow():
            return False
        return unify_type(tp.inner, t.narrow(), tenv)
    if isinstance(tp, TNarrow):
        if not t.can_widen():
            return False
        return unify_type(tp.inner, t.widen(), tenv)
    if isinstance(tp, TWithSign):
        if t.signed != tp.signed:
            return False
        # The inner pattern determines the signedness it needs; try the
        # concrete type at both signs and accept whichever unifies.  The
        # common case (TVar inner) binds to the sign-matching variant.
        for cand in (t, t.with_signed(not t.signed)):
            trial = dict(tenv)
            if unify_type(tp.inner, cand, trial):
                tenv.clear()
                tenv.update(trial)
                return True
        return False
    raise TypeError(f"not a type pattern: {tp!r}")


class Wild(Expr):
    """Matches any subexpression whose type satisfies ``type_pattern``."""

    __slots__ = ("name", "type_pattern")
    _fields = ("name", "type_pattern")
    # Never hash-consed: ``_key`` omits the type pattern, so interning
    # would conflate same-named wildcards with different constraints.
    _internable = False

    def __init__(
        self, name: str, type_pattern: Union[ScalarType, TypePattern]
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type_pattern", type_pattern)

    def _compute_type(self):
        return self.type_pattern

    def _key(self) -> tuple:
        # Type patterns are not hashable by value; identity is by name.
        return (type(self), self.name)


class ConstWild(Expr):
    """Matches only broadcast constants (the paper's ``c0`` wildcards)."""

    __slots__ = ("name", "type_pattern")
    _fields = ("name", "type_pattern")
    _internable = False

    def __init__(
        self, name: str, type_pattern: Union[ScalarType, TypePattern]
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type_pattern", type_pattern)

    def _compute_type(self):
        return self.type_pattern

    def _key(self) -> tuple:
        return (type(self), self.name)


class PConst(Expr):
    """A constant on a rule's right-hand side whose value and/or type are
    computed from the match environment at instantiation time.

    ``value`` is an int or a callable ``fn(const_env) -> int`` where
    ``const_env`` maps constant-wildcard names to their matched int values —
    this expresses RHS relations like ``1 << c0`` or ``log2(c0)`` (§3.2's
    ``widening_shl(x, log2(c0))`` rule).
    """

    __slots__ = ("type_pattern", "value")
    _fields = ("type_pattern", "value")
    _internable = False

    def __init__(
        self,
        type_pattern: Union[ScalarType, TypePattern],
        value: Union[int, Callable[[Dict[str, int]], int]],
    ):
        object.__setattr__(self, "type_pattern", type_pattern)
        object.__setattr__(self, "value", value)

    def _compute_type(self):
        return self.type_pattern

    def _key(self) -> tuple:
        return (type(self), id(self.value), repr(self.type_pattern))


# -- printing ----------------------------------------------------------
def _install_printers() -> None:
    from ..ir.printer import register_printer

    register_printer(Wild, lambda e: f"?{e.name}")
    register_printer(ConstWild, lambda e: f"?{e.name}")
    register_printer(PConst, lambda e: "<computed-const>")


_install_printers()
