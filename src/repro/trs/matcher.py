"""Pattern matching and instantiation for the term-rewriting engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..ir.expr import Const, Expr, TypeError_
from ..ir.types import ScalarType
from .pattern import (
    ConstWild,
    PConst,
    TypeEnv,
    TypePattern,
    Wild,
    resolve_type,
    unify_type,
)

__all__ = ["Match", "match", "instantiate", "pconst_value"]


@dataclass
class Match:
    """A successful pattern match.

    ``env`` binds wildcard names to matched subexpressions; ``tenv`` binds
    type-variable names to concrete types; ``consts`` holds the integer
    values of matched constant wildcards (for predicates and computed
    right-hand-side constants).
    """

    env: Dict[str, Expr] = field(default_factory=dict)
    tenv: TypeEnv = field(default_factory=dict)
    consts: Dict[str, int] = field(default_factory=dict)
    #: the whole matched expression (set by Rule.apply, for predicates
    #: that need bounds on compound sub-structures)
    root: Optional[Expr] = None


def match(pattern: Expr, expr: Expr) -> Optional[Match]:
    """Match ``pattern`` against ``expr``; None if they do not unify."""
    m = Match()
    return m if _match(pattern, expr, m) else None


def _match(pattern: Expr, expr: Expr, m: Match) -> bool:
    if isinstance(pattern, Wild) and not isinstance(pattern, ConstWild):
        t = expr.type
        if not isinstance(t, ScalarType):
            return False
        if not unify_type(pattern.type_pattern, t, m.tenv):
            return False
        bound = m.env.get(pattern.name)
        if bound is not None:
            return bound == expr
        m.env[pattern.name] = expr
        return True

    if isinstance(pattern, ConstWild):
        if not isinstance(expr, Const):
            return False
        if not unify_type(pattern.type_pattern, expr.type, m.tenv):
            return False
        bound = m.env.get(pattern.name)
        if bound is not None:
            return bound == expr
        m.env[pattern.name] = expr
        m.consts[pattern.name] = expr.value
        return True

    if isinstance(pattern, PConst):
        # In a left-hand side, PConst with a literal value matches a
        # constant with exactly that value (e.g. the "/ 2" in halving
        # patterns); callable values are right-hand-side-only.
        if callable(pattern.value) or not isinstance(expr, Const):
            return False
        if expr.value != pattern.value:
            return False
        return unify_type(pattern.type_pattern, expr.type, m.tenv)

    if type(pattern) is not type(expr):
        return False

    for f in pattern._fields:
        pv = getattr(pattern, f)
        ev = getattr(expr, f)
        if isinstance(pv, Expr):
            if not _match(pv, ev, m):
                return False
        elif isinstance(pv, (ScalarType, TypePattern)):
            if not isinstance(ev, ScalarType):
                return False
            if not unify_type(pv, ev, m.tenv):
                return False
        elif pv != ev:
            return False
    return True


def pconst_value(p: PConst, m: Match) -> int:
    """The value of ``p`` for a match, wrapped to its resolved type as
    the ``Const`` that :func:`instantiate` builds holds it.

    A callable value with one *required* positional parameter gets the
    matched constants; one with two also gets the type bindings (for
    type-dependent constants like sign-bit masks).  Defaulted parameters
    (closure captures) don't count.
    """
    t = resolve_type(p.type_pattern, m.tenv)
    v = p.value
    if callable(v):
        code = getattr(v, "__code__", None)
        required = (
            code.co_argcount - len(v.__defaults__ or ())
            if code is not None
            else 1
        )
        v = v(m.consts, m.tenv) if required >= 2 else v(m.consts)
    if not isinstance(v, int):
        raise TypeError_(f"Const value must be int, got {v!r}")
    return t.wrap(v)


def instantiate(rhs: Expr, m: Match) -> Expr:
    """Build the concrete right-hand side for a successful match."""
    if isinstance(rhs, ConstWild) or (
        isinstance(rhs, Wild) and not isinstance(rhs, ConstWild)
    ):
        try:
            return m.env[rhs.name]
        except KeyError:
            raise KeyError(
                f"right-hand side uses unbound wildcard {rhs.name!r}"
            ) from None

    if isinstance(rhs, PConst):
        return Const(resolve_type(rhs.type_pattern, m.tenv),
                     pconst_value(rhs, m))

    args = []
    for f in rhs._fields:
        v = getattr(rhs, f)
        if isinstance(v, Expr):
            args.append(instantiate(v, m))
        elif isinstance(v, TypePattern):
            args.append(resolve_type(v, m.tenv))
        else:
            args.append(v)
    return type(rhs)(*args)
