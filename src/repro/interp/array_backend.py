"""NumPy array-program backend: one ndarray op per hash-consed node.

This compiles the same flat register program as
:func:`repro.interp.compiled.compile_expr` — one register per distinct
node, compositional FPIR spliced in via its Table 1 expansion, handlers
resolved at compile time — but each step is a whole-array NumPy
operation over all lanes at once instead of a Python-level ``map`` of a
scalar closure.  At verifier-grid lane counts (thousands of
sample tuples per call) this removes the per-lane interpreter overhead
entirely: the cost per step is one ufunc dispatch plus ``lanes`` machine
ops.

Correctness model — two dtype tiers per register:

* **int64 tier**: a node runs as native ``np.int64`` arithmetic iff a
  per-node promotion analysis proves the result is bit-exact:

  - the node's *type* range fits in int64 (excludes ``u64`` and the
    128-bit intermediates of expanded 64-bit FPIR),
  - every operand register is itself int64, and
  - the op either tolerates modular arithmetic (wrap-to-type ops:
    add/sub/mul/shl/neg/cast/reinterpret/bit-ops — int64 overflow wraps
    mod 2**64 and the node's wrap mask extracts the correct low bits)
    or its true intermediate provably fits int64 (checked against the
    operand *type* ranges: e.g. ``saturating_add`` at i64 can overflow
    the sum, so it is excluded; at i32 it cannot).

  Wrap/saturate/shift are specialized into precomputed mask/clip
  constants, mirroring the closure backend's specialized kernels.

* **object tier**: everything the analysis cannot prove exact runs as
  an object-dtype array of unbounded Python ints, applying the closure
  backend's *own* scalar kernels via ``np.frompyfunc`` — exact by
  construction at any width (u64 wrap, 128-bit widening intermediates).
  When the node's type fits int64 again (e.g. the ``saturating_narrow``
  at the end of a 64-bit ``mul_shr`` expansion), the result is cast
  back down so downstream nodes return to the fast tier.

The fallback is therefore *per node*, not per program: a mostly-narrow
expression with one wide intermediate keeps every other step vectorized.

Programs are memoized globally on the hash-consed root (weak keys) and
invalidated by :func:`repro.interp.register_handler`, exactly like the
closure backend.  Lane-exact agreement with both the closure backend
and the reference walker — no tolerance, every covered width — is
property-tested in ``tests/interp/test_array_backend.py``.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..fpir import ops as F
from ..ir import expr as E
from ..ir.types import ScalarType
from . import compiled as _compiled
from .evaluator import EvalError, Value

__all__ = ["ArrayCompiledExpr", "compile_expr_array", "clear_array_compile_cache"]

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_ZERO = np.int64(0)
_ONE = np.int64(1)
_P63 = np.int64(63)
_P64 = np.int64(64)
_N64 = np.int64(-64)


def _type_fits_i64(t: ScalarType) -> bool:
    return t.min_value >= _I64_MIN and t.max_value <= _I64_MAX


def _range_fits_i64(lo: int, hi: int) -> bool:
    return lo >= _I64_MIN and hi <= _I64_MAX


# ----------------------------------------------------------------------
# Specialized whole-array primitives (precomputed type constants), one
# kernel per type: compiled programs hold them, so a cached program
# costs no kernel of its own
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _np_wrap(t: ScalarType):
    """Whole-array two's-complement wrap to ``t``.

    Only called for types whose range fits int64.  At 64 bits the int64
    lane *is* the wrapped value (numpy arithmetic is modular in the
    machine word), so wrap is the identity; below that it is one mask
    plus, for signed types, one sign-adjusting select.
    """
    if t.bits >= 64:
        def wrap(a):
            return a
    elif t.signed:
        # ((a + half) mod 2**bits) - half, branch-free: int64 overflow
        # of the bias add is itself modular, so the low bits stay right.
        mask, half = np.int64(t.mask), np.int64(1 << (t.bits - 1))

        def wrap(a, _m=mask, _h=half):
            return ((a + _h) & _m) - _h
    else:
        def wrap(a, _m=np.int64(t.mask)):
            return a & _m
    return wrap


@functools.lru_cache(maxsize=None)
def _np_saturate(t: ScalarType):
    # minimum/maximum are the raw ufuncs; np.clip adds a Python wrapper
    # (including two np.iinfo lookups per call) that dominates at the
    # small array sizes fingerprinting runs at.
    lo, hi = np.int64(t.min_value), np.int64(t.max_value)

    def sat(a, _lo=lo, _hi=hi):
        return np.minimum(np.maximum(a, _lo), _hi)

    return sat


def _np_shift(t: ScalarType, left_primary: bool):
    """Halide shift semantics as a branch-free select of both directions.

    Negative amounts reverse the direction; overshifting left yields 0
    and overshifting right sign-fills.  Right overshift needs no special
    case: clipping the amount to 63 makes ``a >> 63`` produce exactly
    the sign fill (-1 for negative signed lanes, else 0), and in-range
    right shifts of in-range values never leave the type's range.  Left
    shifts may exceed the machine word; numpy wraps mod 2**64 and the
    node's wrap mask extracts the correct low bits.
    """
    bits = t.bits
    wrap = _np_wrap(t)

    def shift(a, s, _bits=bits, _w=wrap, _left=left_primary):
        sc = np.minimum(np.maximum(s, _N64), _P64)
        e = sc if _left else -sc
        is_left = e >= 0
        la = np.where(is_left, e, _ZERO)
        la_ok = la < _bits
        lres = _w(a << np.where(la_ok, la, _ZERO))
        lres = np.where(la_ok, lres, _ZERO)
        ra = np.minimum(np.where(is_left, _ZERO, -e), _P63)
        return np.where(is_left, lres, a >> ra)

    return shift


def _np_shift_const(t: ScalarType, left_primary: bool, amount: int):
    """A shift whose amount operand is a compile-time constant.

    The direction/overshift selects of :func:`_np_shift` collapse to a
    single machine shift (plus the wrap mask for lefts) — the dominant
    case in SyGuS candidate pools, where shift counts come from the
    LHS's own constants.
    """
    bits = t.bits
    wrap = _np_wrap(t)
    e = amount if left_primary else -amount
    if e >= 0:  # left
        if e >= bits:
            return lambda a, _s: np.zeros(len(a), dtype=np.int64)
        sh = np.int64(e)
        return lambda a, _s, _w=wrap, _sh=sh: _w(a << _sh)
    sh = np.int64(min(-e, 63))
    return lambda a, _s, _sh=sh: a >> _sh


def _as_object(a: "np.ndarray") -> "np.ndarray":
    """Lift an int64 block to unbounded Python ints.

    ``frompyfunc`` would otherwise feed ``np.int64`` scalars to the
    exact scalar kernels, whose intermediate math would silently wrap.
    """
    return a if a.dtype == object else a.astype(object)


# ----------------------------------------------------------------------
# int64-tier step emitters
# ----------------------------------------------------------------------
def _binary_i64_fn(node: E.Expr) -> Optional[Callable]:
    """Whole-array kernel for a binary node, or None if the node cannot
    run exactly in int64 (given operands within their *type* ranges)."""
    t = node.type
    ta, tb = node.children[0].type, node.children[1].type
    if isinstance(node, E.Add) or isinstance(node, F.ExtendingAdd):
        w = _np_wrap(t)
        return lambda a, b: w(a + b)
    if isinstance(node, E.Sub) or isinstance(node, F.ExtendingSub):
        w = _np_wrap(t)
        return lambda a, b: w(a - b)
    if isinstance(node, E.Mul) or isinstance(node, F.ExtendingMul):
        w = _np_wrap(t)
        return lambda a, b: w(a * b)
    if isinstance(node, E.Div):
        w = _np_wrap(t)

        def div(a, b, _w=w):
            bz = b == _ZERO
            q = a // np.where(bz, _ONE, b)
            return np.where(bz, _ZERO, _w(q))

        return div
    if isinstance(node, E.Mod):
        w = _np_wrap(t)

        def mod(a, b, _w=w):
            bz = b == _ZERO
            r = a % np.where(bz, _ONE, b)
            return np.where(bz, _ZERO, _w(r))

        return mod
    if isinstance(node, E.Min):
        return np.minimum
    if isinstance(node, E.Max):
        return np.maximum
    if isinstance(node, E.Shl):
        if isinstance(node.children[1], E.Const):
            return _np_shift_const(t, True, node.children[1].value)
        return _np_shift(t, True)
    if isinstance(node, E.Shr):
        if isinstance(node.children[1], E.Const):
            return _np_shift_const(t, False, node.children[1].value)
        return _np_shift(t, False)
    if isinstance(node, E.BitAnd):
        w = _np_wrap(t)
        return lambda a, b: w(a & b)
    if isinstance(node, E.BitOr):
        w = _np_wrap(t)
        return lambda a, b: w(a | b)
    if isinstance(node, E.BitXor):
        w = _np_wrap(t)
        return lambda a, b: w(a ^ b)
    if isinstance(node, E.LT):
        return lambda a, b: (a < b).astype(np.int64)
    if isinstance(node, E.LE):
        return lambda a, b: (a <= b).astype(np.int64)
    if isinstance(node, E.GT):
        return lambda a, b: (a > b).astype(np.int64)
    if isinstance(node, E.GE):
        return lambda a, b: (a >= b).astype(np.int64)
    if isinstance(node, E.EQ):
        return lambda a, b: (a == b).astype(np.int64)
    if isinstance(node, E.NE):
        return lambda a, b: (a != b).astype(np.int64)
    # --- FPIR binaries with true (non-modular) intermediates ---------
    if isinstance(node, F.WideningAdd):
        w = _np_wrap(t)
        return lambda a, b: w(a + b)
    if isinstance(node, F.WideningSub):
        return lambda a, b: a - b  # exact in the wider signed type
    if isinstance(node, F.WideningMul):
        # Products of <=32-bit operands stay within int64 whenever the
        # widened result type does (u32*u32 -> u64 is already excluded
        # by the node-type check).
        return lambda a, b: a * b
    if isinstance(node, F.WideningShl):
        if isinstance(node.children[1], E.Const):
            return _np_shift_const(t, True, node.children[1].value)
        return _np_shift(t, True)
    if isinstance(node, F.WideningShr):
        if isinstance(node.children[1], E.Const):
            return _np_shift_const(t, False, node.children[1].value)
        return _np_shift(t, False)
    if isinstance(node, F.Absd):
        return lambda a, b: np.abs(a - b)
    if isinstance(node, F.SaturatingAdd):
        if not _range_fits_i64(
            ta.min_value + tb.min_value, ta.max_value + tb.max_value
        ):
            return None
        s = _np_saturate(t)
        return lambda a, b: s(a + b)
    if isinstance(node, F.SaturatingSub):
        if not _range_fits_i64(
            ta.min_value - tb.max_value, ta.max_value - tb.min_value
        ):
            return None
        s = _np_saturate(t)
        return lambda a, b: s(a - b)
    if isinstance(node, F.HalvingAdd):
        if not _range_fits_i64(
            ta.min_value + tb.min_value, ta.max_value + tb.max_value
        ):
            return None
        w = _np_wrap(t)
        return lambda a, b: w((a + b) // 2)
    if isinstance(node, F.HalvingSub):
        if not _range_fits_i64(
            ta.min_value - tb.max_value, ta.max_value - tb.min_value
        ):
            return None
        w = _np_wrap(t)
        return lambda a, b: w((a - b) // 2)
    if isinstance(node, F.RoundingHalvingAdd):
        if not _range_fits_i64(
            ta.min_value + tb.min_value, ta.max_value + tb.max_value + 1
        ):
            return None
        w = _np_wrap(t)
        return lambda a, b: w((a + b + _ONE) // 2)
    return None


def _unary_i64_fn(node: E.Expr) -> Optional[Callable]:
    if isinstance(node, E.Cast):
        return _np_wrap(node.to)
    if isinstance(node, E.Reinterpret):
        src = node.value.type
        w = _np_wrap(node.to)
        if src.bits >= 64:
            # The int64 lane already carries the full 64-bit pattern;
            # the destination wrap extracts whatever low bits it needs.
            return w
        mask = np.int64(src.mask)
        return lambda v, _w=w, _m=mask: _w(v & _m)
    if isinstance(node, E.Neg):
        w = _np_wrap(node.type)
        return lambda v, _w=w: _w(-v)
    if isinstance(node, E.Not):
        return lambda v: _ONE - v
    if isinstance(node, F.Abs):
        return np.abs
    if isinstance(node, F.SaturatingCast):
        return _np_saturate(node.to)
    if isinstance(node, F.SaturatingNarrow):
        return _np_saturate(node.type)
    return None


# ----------------------------------------------------------------------
# Step factories
# ----------------------------------------------------------------------
def _var_step_i64(dst: int, name: str, t: ScalarType):
    wrap = _np_wrap(t)
    pywrap = _compiled._wrap_fn(t)

    def step(regs, env, lanes, _d=dst, _n=name, _w=wrap, _pw=pywrap):
        try:
            raw = env[_n]
        except KeyError:
            raise EvalError(f"unbound variable {_n!r}") from None
        if len(raw) != lanes:
            raise EvalError(
                f"variable {_n!r} has {len(raw)} lanes, expected {lanes}"
            )
        try:
            a = np.asarray(raw, dtype=np.int64)
        except OverflowError:
            # Out-of-machine-range inputs: wrap in exact arithmetic
            # first (the reference walker wraps raw inputs too).
            a = np.asarray([_pw(v) for v in raw], dtype=np.int64)
        regs[_d] = _w(a)

    return step


def _var_step_obj(dst: int, name: str, t: ScalarType):
    pywrap = _compiled._wrap_fn(t)

    def step(regs, env, lanes, _d=dst, _n=name, _pw=pywrap):
        try:
            raw = env[_n]
        except KeyError:
            raise EvalError(f"unbound variable {_n!r}") from None
        if len(raw) != lanes:
            raise EvalError(
                f"variable {_n!r} has {len(raw)} lanes, expected {lanes}"
            )
        regs[_d] = np.array([_pw(v) for v in raw], dtype=object)

    return step


def _const_step(dst: int, value: int, dtype):
    # A read-only view of one 0-d array, broadcast to the lane count and
    # cached per lane count: every step allocates a fresh output (no
    # ufunc writes through ``out=``), so sharing the operand across calls
    # is safe, and a kept program holds one value, not a lane array.
    scalar = np.array(value, dtype=dtype)
    cache: List[Optional["np.ndarray"]] = [None]

    def step(regs, env, lanes, _d=dst, _s=scalar, _c=cache):
        arr = _c[0]
        if arr is None or len(arr) != lanes:
            arr = np.broadcast_to(_s, (lanes,))
            _c[0] = arr
        regs[_d] = arr

    return step


def _unary_step(dst: int, src: int, fn):
    def step(regs, env, lanes, _d=dst, _s=src, _f=fn):
        regs[_d] = _f(regs[_s])

    return step


def _binary_step(dst: int, a: int, b: int, fn):
    def step(regs, env, lanes, _d=dst, _a=a, _b=b, _f=fn):
        regs[_d] = _f(regs[_a], regs[_b])

    return step


def _select_step_i64(dst: int, c: int, t: int, f: int):
    def step(regs, env, lanes, _d=dst, _c=c, _t=t, _f=f):
        regs[_d] = np.where(regs[_c] != _ZERO, regs[_t], regs[_f])

    return step


def _downcast(fn_step, dst: int):
    """Wrap an object-tier step so its result re-enters the int64 tier."""

    def step(regs, env, lanes, _inner=fn_step, _d=dst):
        _inner(regs, env, lanes)
        regs[_d] = regs[_d].astype(np.int64)

    return step


def _select_step_obj(dst: int, c: int, t: int, f: int):
    def step(regs, env, lanes, _d=dst, _c=c, _t=t, _f=f):
        cond = _as_object(regs[_c]) != 0
        regs[_d] = np.where(
            cond.astype(bool), _as_object(regs[_t]), _as_object(regs[_f])
        )

    return step


def _unary_step_obj(dst: int, src: int, uf):
    def step(regs, env, lanes, _d=dst, _s=src, _u=uf):
        regs[_d] = _u(_as_object(regs[_s]))

    return step


def _binary_step_obj(dst: int, a: int, b: int, uf):
    def step(regs, env, lanes, _d=dst, _a=a, _b=b, _u=uf):
        regs[_d] = _u(_as_object(regs[_a]), _as_object(regs[_b]))

    return step


def _handler_step(dst: int, kid_slots: List[int], handler, node: E.Expr,
                  dtype):
    def step(regs, env, lanes, _d=dst, _k=tuple(kid_slots), _h=handler,
             _n=node, _t=dtype):
        vals = _h(_n, [regs[i].tolist() for i in _k])
        regs[_d] = np.asarray(vals, dtype=_t)

    return step


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------
class ArrayCompiledExpr:
    """An expression compiled to ndarray steps: ``fn(env, lanes) -> Value``.

    ``reg_dtypes`` records each register's *storage* dtype (``"int64"``
    or ``"object"``) and ``exec_tiers`` the tier its step actually ran
    in — they differ exactly on downcast steps, whose object-tier result
    is stored back as int64.  Both are in build order, introspectable so
    tests can pin which nodes took the fallback path.  Results are
    returned as plain ``list[int]`` (``ndarray.tolist()`` restores
    Python ints from both tiers), keeping the call contract identical
    to the closure backend.
    """

    __slots__ = (
        "_steps", "_n_regs", "_out", "_var_names", "_guard", "reg_dtypes",
        "exec_tiers",
    )

    def __init__(self, steps, n_regs: int, out: int, var_names, reg_dtypes,
                 exec_tiers, guard: bool):
        self._steps = steps
        self._n_regs = n_regs
        self._out = out
        self._var_names = var_names
        self._guard = guard
        self.reg_dtypes = reg_dtypes
        self.exec_tiers = exec_tiers

    def __call__(
        self, env: Mapping[str, Sequence[int]], lanes: Optional[int] = None
    ) -> Value:
        if lanes is None:
            lanes = self.infer_lanes(env)
        regs: List[Optional["np.ndarray"]] = [None] * self._n_regs
        if self._guard:
            # Division corners (i64min // -1) are handled correctly but
            # make numpy emit a spurious RuntimeWarning; programs with
            # an int64-tier div/mod run under errstate, others skip the
            # context-manager cost.
            with np.errstate(all="ignore"):
                for step in self._steps:
                    step(regs, env, lanes)
        else:
            for step in self._steps:
                step(regs, env, lanes)
        return regs[self._out].tolist()

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

    @property
    def object_step_count(self) -> int:
        """How many steps executed in the exact object tier."""
        return sum(1 for d in self.exec_tiers if d == "object")


def prepare_env(
    env: Mapping[str, Sequence[int]], variables
) -> Mapping[str, Sequence[int]]:
    """Pre-convert test vectors to int64 ndarrays for *repeated*
    ndarray-backend calls over one environment (SyGuS fingerprints every
    pool candidate against the same test vectors).

    Only variables whose type fits the int64 tier convert — wider vars
    (u64) stay as lists because their steps iterate exact Python ints,
    and an out-of-machine-range vector stays a list so the var step's
    exact-wrap fallback still sees the raw values.  The result must only
    be fed to the ndarray backend: the closure backend's exact scalar
    kernels would silently wrap on ``np.int64`` lane values.
    """
    types = {v.name: v.type for v in variables}
    out = dict(env)
    for name, vals in env.items():
        t = types.get(name)
        if t is None or isinstance(vals, np.ndarray):
            continue
        if _type_fits_i64(t):
            try:
                out[name] = np.asarray(vals, dtype=np.int64)
            except (OverflowError, TypeError):
                pass
    return out


#: root -> ArrayCompiledExpr.  Weak keys: entries die with the expression.
_ARRAY_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: node -> plan tuple (see :func:`_plan`).  SyGuS-style pools compile
#: many roots over heavily shared subtrees; everything about a node's
#: step except its register numbers is node-local, so it is derived once
#: here and each program build is reduced to slot assignment.
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _plan(node: E.Expr):
    """``(tag, dtype, tier, guard, payload, maker)`` for ``node``.

    * ``tag`` — ``"alias"`` (compositional FPIR: payload is the Table 1
      expansion to build instead), ``"var"`` (payload is the name) or
      ``"step"``.
    * ``dtype``/``tier`` — storage dtype and execution tier of the
      node's register.  Both are pure functions of the node: storage is
      int64 iff the node's own type range fits, and the tier decision
      sees only the node, its kernel and its children's storage dtypes.
    * ``guard`` — the step needs ``np.errstate`` (int64-tier div/mod).
    * ``maker`` — ``maker(dst, kid_slots) -> step`` closure holding the
      derived i64 kernel / object ufunc; only register wiring is left
      for compile time.
    """
    got = _PLANS.get(node)
    if got is not None:
        return got
    kind, payload = _compiled._kernel(node)
    if kind == "alias":
        plan = ("alias", _plan(payload)[1], None, False, payload, None)
        _PLANS[node] = plan
        return plan
    kid_dtypes = [_plan(c)[1] for c in node.children]
    t = node.type
    fits = _type_fits_i64(t)
    dtype = "int64" if fits else "object"
    kids_i64 = all(d == "int64" for d in kid_dtypes)
    guard = False

    if kind == "var":
        name = payload[0]
        maker = (
            (lambda d, ks, _n=name, _t=t: _var_step_i64(d, _n, _t)) if fits
            else (lambda d, ks, _n=name, _t=t: _var_step_obj(d, _n, _t))
        )
        plan = ("var", dtype, dtype, False, name, maker)
    elif kind == "const":
        np_t = np.int64 if fits else object
        maker = lambda d, ks, _v=payload, _t=np_t: _const_step(d, _v, _t)
        plan = ("step", dtype, dtype, False, None, maker)
    elif kind == "handler":
        np_t = np.int64 if fits else object
        maker = (
            lambda d, ks, _h=payload, _n=node, _t=np_t:
            _handler_step(d, ks, _h, _n, _t)
        )
        plan = ("step", dtype, dtype, False, None, maker)
    elif kind == "select":
        if fits and kids_i64:
            maker = lambda d, ks: _select_step_i64(d, *ks)
            plan = ("step", dtype, dtype, False, None, maker)
        else:
            maker = (
                (lambda d, ks: _downcast(_select_step_obj(d, *ks), d))
                if fits else (lambda d, ks: _select_step_obj(d, *ks))
            )
            plan = ("step", dtype, "object", False, None, maker)
    elif kind == "unary":
        fn = _unary_i64_fn(node) if (fits and kids_i64) else None
        if fn is not None:
            maker = lambda d, ks, _f=fn: _unary_step(d, ks[0], _f)
            plan = ("step", dtype, dtype, False, None, maker)
        else:
            uf = np.frompyfunc(payload, 1, 1)
            maker = (
                (lambda d, ks, _u=uf:
                 _downcast(_unary_step_obj(d, ks[0], _u), d))
                if fits else
                (lambda d, ks, _u=uf: _unary_step_obj(d, ks[0], _u))
            )
            plan = ("step", dtype, "object", False, None, maker)
    else:  # binary
        fn = _binary_i64_fn(node) if (fits and kids_i64) else None
        if fn is not None:
            guard = isinstance(node, (E.Div, E.Mod))
            maker = lambda d, ks, _f=fn: _binary_step(d, ks[0], ks[1], _f)
            plan = ("step", dtype, dtype, guard, None, maker)
        else:
            uf = np.frompyfunc(payload, 2, 1)
            maker = (
                (lambda d, ks, _u=uf:
                 _downcast(_binary_step_obj(d, ks[0], ks[1], _u), d))
                if fits else
                (lambda d, ks, _u=uf: _binary_step_obj(d, ks[0], ks[1], _u))
            )
            plan = ("step", dtype, "object", False, None, maker)
    _PLANS[node] = plan
    return plan


def clear_array_compile_cache() -> None:
    """Drop all compiled ndarray programs and node plans (handler
    registrations change the meaning of already-compiled node classes)."""
    _ARRAY_PROGRAMS.clear()
    _PLANS.clear()


# handler registration reaches this through clear_compile_cache (itself
# an _ev._INVALIDATE_HOOKS entry); registering there directly instead
# would leave a manual clear_compile_cache() with stale array programs
_compiled._BACKEND_CLEAR_HOOKS.append(clear_array_compile_cache)


def compile_expr_array(expr: E.Expr) -> ArrayCompiledExpr:
    """Compile ``expr`` to ndarray steps; memoized on the hash-consed node.

    Reuses the closure backend's kernel resolution (:func:`_kernel`) so
    dispatch order — Var before handlers, handlers before built-ins,
    compositional FPIR through its Table 1 expansion — is identical by
    construction; only the *execution strategy* per node differs.
    """
    got = _ARRAY_PROGRAMS.get(expr)
    if got is not None:
        return got

    steps: List[Callable] = []
    slot_of: Dict[E.Expr, int] = {}
    reg_dtypes: List[str] = []
    exec_tiers: List[str] = []
    n_regs = 0
    var_names: List[str] = []
    seen_vars: set = set()
    guard = False

    def alloc(dtype: str, tier: str) -> int:
        nonlocal n_regs
        s = n_regs
        n_regs += 1
        reg_dtypes.append(dtype)
        exec_tiers.append(tier)
        return s

    def build(node: E.Expr) -> int:
        nonlocal guard
        s = slot_of.get(node)
        if s is not None:
            return s
        tag, dtype, tier, g, payload, maker = _plan(node)
        if tag == "alias":
            s = build(payload)  # compositional FPIR -> its expansion
            slot_of[node] = s
            return s
        kid_slots = [build(c) for c in node.children]
        if tag == "var" and payload not in seen_vars:
            seen_vars.add(payload)
            var_names.append(payload)
        if g:
            guard = True
        s = alloc(dtype, tier)
        steps.append(maker(s, kid_slots))
        slot_of[node] = s
        return s

    out = build(expr)
    compiled = ArrayCompiledExpr(
        tuple(steps), n_regs, out, tuple(var_names), tuple(reg_dtypes),
        tuple(exec_tiers), guard,
    )
    _ARRAY_PROGRAMS[expr] = compiled
    return compiled
