"""Compiled evaluation backend: translate an expression once, run it often.

:func:`compile_expr` turns an interned :class:`~repro.ir.expr.Expr` into a
flat, topologically-ordered sequence of per-node closures.  Everything the
recursive walker in :mod:`repro.interp.evaluator` decides *per call* —
operator dispatch, wrap/saturate selection, and the Table 1 expansion of
compositional FPIR instructions — is resolved here *per node, once*:

* each distinct (hash-consed) node gets one register slot, so shared
  subtrees are computed once per call exactly like the walker's memo dict,
  but without any per-call hashing;
* compositional FPIR instructions (``rounding_shl``, ``mul_shr``, ...)
  are replaced at compile time by their definitional expansion, which is
  then compiled like any other subtree — the walker rebuilds and
  re-expands that surrogate tree on *every* evaluation;
* per-node scalar kernels (wrap, saturate, shift) are specialized
  closures over precomputed masks/bounds instead of ``ScalarType``
  property lookups per lane.

Because expressions are hash-consed (PR 1), the node itself is a sound
global memoization key: both the per-node kernels and whole compiled
programs are cached in weak dictionaries, so the verifier's sample sweep
and the synthesizer's ``by_size`` candidate pools compile each shared
subtree exactly once across *all* roots.  :func:`repro.interp.register_handler`
invalidates both caches (handlers are resolved at compile time).

Exact unbounded-int semantics are identical to the reference walker; the
property test in ``tests/interp/test_compiled.py`` asserts lane-exact
equivalence on randomly generated well-typed IR/FPIR expressions.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..fpir import ops as F
from ..fpir.semantics import expand
from ..ir import expr as E
from ..ir.types import ScalarType
from . import evaluator as _ev
from .evaluator import EvalError, Value

__all__ = ["CompiledExpr", "compile_expr", "clear_compile_cache"]


# ----------------------------------------------------------------------
# Fast scalar kernels (specialized over precomputed type constants)
# ----------------------------------------------------------------------
_WRAPS: Dict[ScalarType, Callable[[int], int]] = {}
_SATS: Dict[ScalarType, Callable[[int], int]] = {}


def _wrap_fn(t: ScalarType) -> Callable[[int], int]:
    """A closure equivalent to ``t.wrap`` without per-call property math."""
    fn = _WRAPS.get(t)
    if fn is None:
        mask = t.mask
        if t.signed:
            half, full = 1 << (t.bits - 1), 1 << t.bits

            def fn(v: int, _m=mask, _h=half, _f=full) -> int:
                v &= _m
                return v - _f if v >= _h else v

        else:

            def fn(v: int, _m=mask) -> int:
                return v & _m

        _WRAPS[t] = fn
    return fn


def _saturate_fn(t: ScalarType) -> Callable[[int], int]:
    fn = _SATS.get(t)
    if fn is None:
        lo, hi = t.min_value, t.max_value

        def fn(v: int, _lo=lo, _hi=hi) -> int:
            return _lo if v < _lo else (_hi if v > _hi else v)

        _SATS[t] = fn
    return fn


def _shift_fns(t: ScalarType):
    """Halide shift semantics (negative amount reverses; overshift sats)."""
    bits, signed, wrap = t.bits, t.signed, _wrap_fn(t)

    def shl(v: int, s: int) -> int:
        if s < 0:
            return shr(v, -s)
        if s >= bits:
            return 0
        return wrap(v << s)

    def shr(v: int, s: int) -> int:
        if s < 0:
            return shl(v, -s)
        if s >= bits:
            return -1 if (signed and v < 0) else 0
        return wrap(v >> s)

    return shl, shr


def _core_binary_kernel(node: E.Expr) -> Optional[Callable[[int, int], int]]:
    """Scalar kernel for a core binary op (mirrors ``_binary_fn``)."""
    t = node.type
    if isinstance(node, E.Add):
        w = _wrap_fn(t)
        return lambda a, b: w(a + b)
    if isinstance(node, E.Sub):
        w = _wrap_fn(t)
        return lambda a, b: w(a - b)
    if isinstance(node, E.Mul):
        w = _wrap_fn(t)
        return lambda a, b: w(a * b)
    if isinstance(node, E.Div):
        w = _wrap_fn(t)
        return lambda a, b: w(a // b) if b else 0
    if isinstance(node, E.Mod):
        w = _wrap_fn(t)
        return lambda a, b: w(a % b) if b else 0
    if isinstance(node, E.Min):
        return min
    if isinstance(node, E.Max):
        return max
    if isinstance(node, E.Shl):
        return _shift_fns(t)[0]
    if isinstance(node, E.Shr):
        return _shift_fns(t)[1]
    if isinstance(node, E.BitAnd):
        w = _wrap_fn(t)
        return lambda a, b: w(a & b)
    if isinstance(node, E.BitOr):
        w = _wrap_fn(t)
        return lambda a, b: w(a | b)
    if isinstance(node, E.BitXor):
        w = _wrap_fn(t)
        return lambda a, b: w(a ^ b)
    if isinstance(node, E.LT):
        return lambda a, b: int(a < b)
    if isinstance(node, E.LE):
        return lambda a, b: int(a <= b)
    if isinstance(node, E.GT):
        return lambda a, b: int(a > b)
    if isinstance(node, E.GE):
        return lambda a, b: int(a >= b)
    if isinstance(node, E.EQ):
        return lambda a, b: int(a == b)
    if isinstance(node, E.NE):
        return lambda a, b: int(a != b)
    return None


def _fpir_binary_kernel(node: F.FPIRInstr) -> Optional[Callable[[int, int], int]]:
    """Scalar kernel for a directly-evaluated FPIR binary instruction
    (mirrors ``_fpir_binary_fn``)."""
    t = node.type
    if isinstance(node, F.WideningAdd):
        w = _wrap_fn(t)
        return lambda a, b: w(a + b)
    if isinstance(node, F.WideningSub):
        return lambda a, b: a - b  # exact in the wider signed type
    if isinstance(node, F.WideningMul):
        return lambda a, b: a * b  # exact in 2N bits, any signedness mix
    if isinstance(node, F.WideningShl):
        return _shift_fns(t)[0]
    if isinstance(node, F.WideningShr):
        return _shift_fns(t)[1]
    if isinstance(node, F.ExtendingAdd):
        w = _wrap_fn(t)
        return lambda a, b: w(a + b)
    if isinstance(node, F.ExtendingSub):
        w = _wrap_fn(t)
        return lambda a, b: w(a - b)
    if isinstance(node, F.ExtendingMul):
        w = _wrap_fn(t)
        return lambda a, b: w(a * b)
    if isinstance(node, F.Absd):
        return lambda a, b: abs(a - b)
    if isinstance(node, F.SaturatingAdd):
        s = _saturate_fn(t)
        return lambda a, b: s(a + b)
    if isinstance(node, F.SaturatingSub):
        s = _saturate_fn(t)
        return lambda a, b: s(a - b)
    if isinstance(node, F.HalvingAdd):
        w = _wrap_fn(t)
        return lambda a, b: w((a + b) // 2)
    if isinstance(node, F.HalvingSub):
        w = _wrap_fn(t)
        return lambda a, b: w((a - b) // 2)
    if isinstance(node, F.RoundingHalvingAdd):
        w = _wrap_fn(t)
        return lambda a, b: w((a + b + 1) // 2)
    return None


# ----------------------------------------------------------------------
# Per-node kernel resolution (memoized on the hash-consed node)
# ----------------------------------------------------------------------
#: node -> (kind, payload).  Kinds: 'var', 'handler', 'const', 'unary',
#: 'binary', 'select', 'alias' (compositional FPIR -> its expansion).
_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: root -> CompiledExpr.  Weak keys: entries die with the expression.
_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


#: other evaluation backends, and caches that keep compiled programs
#: (the rule verifier's), register their cache clears here, so that
#: clear_compile_cache() means "no compiled artifact survives" no matter
#: which backend produced it
_BACKEND_CLEAR_HOOKS: list = []


def clear_compile_cache() -> None:
    """Drop all compiled programs and kernels, in every backend.

    Called automatically by :func:`repro.interp.register_handler`:
    handlers are resolved at compile time, so registering one can change
    the meaning of an already-compiled node class.
    """
    _PROGRAMS.clear()
    _KERNELS.clear()
    for hook in _BACKEND_CLEAR_HOOKS:
        hook()


# register_handler invalidates the compile caches through this hook
_ev._INVALIDATE_HOOKS.append(clear_compile_cache)


def _resolve_kernel(node: E.Expr) -> Tuple[str, object]:
    # Dispatch order mirrors the reference walker exactly: Var is resolved
    # before the handler table (``evaluate`` never routes Vars through
    # ``_eval_node``), handlers win over every built-in node kind.
    if isinstance(node, E.Var):
        return ("var", (node.name, _wrap_fn(node.type)))
    handler = _ev._HANDLERS.get(type(node))
    if handler is not None:
        return ("handler", handler)
    if isinstance(node, E.Const):
        return ("const", node.value)
    if isinstance(node, E.Cast):
        return ("unary", _wrap_fn(node.to))
    if isinstance(node, E.Reinterpret):
        w, mask = _wrap_fn(node.to), node.value.type.mask
        return ("unary", lambda v, _w=w, _m=mask: _w(v & _m))
    if isinstance(node, E.Neg):
        w = _wrap_fn(node.type)
        return ("unary", lambda v, _w=w: _w(-v))
    if isinstance(node, E.Not):
        return ("unary", lambda v: 1 - v)
    if isinstance(node, E.Select):
        return ("select", None)
    if isinstance(node, F.Abs):
        return ("unary", abs)
    if isinstance(node, E.BinaryOp):
        fn = _core_binary_kernel(node)
        if fn is not None:
            return ("binary", fn)
    if isinstance(node, F.FPIRInstr):
        fn = _fpir_binary_kernel(node)
        if fn is not None:
            return ("binary", fn)
        if isinstance(node, F.SaturatingCast):
            return ("unary", _saturate_fn(node.to))
        if isinstance(node, F.SaturatingNarrow):
            return ("unary", _saturate_fn(node.type))
        # Compositional instruction: splice in the Table 1 expansion.
        # ``expand`` rebuilds over the node's actual children, so shared
        # operands keep sharing their register slots.
        try:
            expansion = expand(node)
        except NotImplementedError:
            expansion = None
        if expansion is None:
            raise EvalError(f"no semantics for {type(node).__name__}")
        return ("alias", expansion)
    raise EvalError(f"cannot evaluate node: {type(node).__name__}")


def _kernel(node: E.Expr) -> Tuple[str, object]:
    got = _KERNELS.get(node)
    if got is None:
        got = _resolve_kernel(node)
        _KERNELS[node] = got
    return got


# ----------------------------------------------------------------------
# Step factories: bind kernels to register slots
# ----------------------------------------------------------------------
def _const_step(dst: int, value: int):
    def step(regs, env, lanes, _d=dst, _v=value):
        regs[_d] = [_v] * lanes

    return step


def _var_step(dst: int, name: str, wrap):
    def step(regs, env, lanes, _d=dst, _n=name, _w=wrap):
        try:
            raw = env[_n]
        except KeyError:
            raise EvalError(f"unbound variable {_n!r}") from None
        if len(raw) != lanes:
            raise EvalError(
                f"variable {_n!r} has {len(raw)} lanes, expected {lanes}"
            )
        regs[_d] = list(map(_w, raw))

    return step


def _unary_step(dst: int, src: int, fn):
    def step(regs, env, lanes, _d=dst, _s=src, _f=fn):
        regs[_d] = list(map(_f, regs[_s]))

    return step


def _binary_step(dst: int, a: int, b: int, fn):
    def step(regs, env, lanes, _d=dst, _a=a, _b=b, _f=fn):
        regs[_d] = list(map(_f, regs[_a], regs[_b]))

    return step


def _select_step(dst: int, c: int, t: int, f: int):
    def step(regs, env, lanes, _d=dst, _c=c, _t=t, _f=f):
        regs[_d] = [
            tv if cv else fv
            for cv, tv, fv in zip(regs[_c], regs[_t], regs[_f])
        ]

    return step


def _handler_step(dst: int, kid_slots: List[int], handler, node: E.Expr):
    def step(regs, env, lanes, _d=dst, _k=tuple(kid_slots), _h=handler,
             _n=node):
        regs[_d] = _h(_n, [regs[i] for i in _k])

    return step


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------
class CompiledExpr:
    """A compiled expression: ``fn(env, lanes) -> Value``.

    Running executes the flat step list over a fresh register file; the
    register count equals the number of distinct nodes in the (expanded)
    DAG.  When ``lanes`` is None it is inferred from the first of the
    expression's variables bound in ``env`` — raising :class:`EvalError`
    for a non-constant expression none of whose variables are bound.
    """

    __slots__ = ("_steps", "_n_regs", "_out", "_var_names")

    def __init__(self, steps, n_regs: int, out: int, var_names):
        self._steps = steps
        self._n_regs = n_regs
        self._out = out
        self._var_names = var_names

    def __call__(
        self, env: Mapping[str, Sequence[int]], lanes: Optional[int] = None
    ) -> Value:
        if lanes is None:
            lanes = self.infer_lanes(env)
        regs: List[Optional[Value]] = [None] * self._n_regs
        for step in self._steps:
            step(regs, env, lanes)
        return regs[self._out]

    def infer_lanes(self, env: Mapping[str, Sequence[int]]) -> int:
        for name in self._var_names:
            if name in env:
                return len(env[name])
        if self._var_names:
            raise EvalError(
                "cannot infer lanes: expression shares no variables with "
                f"the environment (needs one of {sorted(self._var_names)})"
            )
        return 1


def compile_expr(expr: E.Expr) -> CompiledExpr:
    """Compile ``expr`` once; memoized globally on the hash-consed node."""
    got = _PROGRAMS.get(expr)
    if got is not None:
        return got

    steps: List[Callable] = []
    slot_of: Dict[E.Expr, int] = {}
    n_regs = 0
    var_names: List[str] = []
    seen_vars: set = set()

    def build(node: E.Expr) -> int:
        nonlocal n_regs
        s = slot_of.get(node)
        if s is not None:
            return s
        kind, payload = _kernel(node)
        if kind == "alias":
            s = build(payload)  # compositional FPIR -> its expansion
            slot_of[node] = s
            return s
        kid_slots = [build(c) for c in node.children]
        s = n_regs
        n_regs += 1
        slot_of[node] = s
        if kind == "var":
            name, wrap = payload
            if name not in seen_vars:
                seen_vars.add(name)
                var_names.append(name)
            steps.append(_var_step(s, name, wrap))
        elif kind == "const":
            steps.append(_const_step(s, payload))
        elif kind == "unary":
            steps.append(_unary_step(s, kid_slots[0], payload))
        elif kind == "binary":
            steps.append(_binary_step(s, kid_slots[0], kid_slots[1], payload))
        elif kind == "select":
            steps.append(_select_step(s, *kid_slots))
        else:  # handler
            steps.append(_handler_step(s, kid_slots, payload, node))
        return s

    out = build(expr)
    compiled = CompiledExpr(tuple(steps), n_regs, out, tuple(var_names))
    _PROGRAMS[expr] = compiled
    return compiled
