"""Differential testing of the NumPy array-program backend.

The ndarray backend (:mod:`repro.interp.array_backend`) must be
lane-exactly identical — no tolerance, plain ``==`` on Python ints — to
both the closure backend and the reference tree-walker on every
well-typed IR/FPIR expression, at every covered width.  That includes
the int64 fast tier (narrow types, i32×i32 widening), the object-dtype
exact tier (u64 wrap, 128-bit intermediates of 64-bit FPIR), and the
per-node fallback boundary between them.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
import hypothesis.strategies as st

from repro import fpir as F
from repro.interp import (
    AUTO_LANES_THRESHOLD,
    EvalError,
    clear_compile_cache,
    compile_expr,
    compile_for_backend,
    effective_backend,
    evaluate,
    evaluate_reference,
    get_default_backend,
    set_default_backend,
)
from repro.interp import array_backend
from repro.interp import evaluator as _ev
from repro.interp.array_backend import (
    clear_array_compile_cache,
    compile_expr_array,
    prepare_env,
)
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import I8, I16, I32, I64, U8, U32, U64, ScalarType
from tests.interp.test_compiled import _env_for, exprs

# ----------------------------------------------------------------------
# 64-bit-inclusive expression strategy
# ----------------------------------------------------------------------
# The shared ``exprs`` strategy stops at 32 bits (the closure/reference
# differential never needed more).  The array backend's promotion
# analysis only becomes interesting at 64 bits, so this pool adds U64
# and I64 leaves: same-type arithmetic exercises u64 modular wrap in the
# object tier, and FPIR at i64 (saturating/halving/mul_shr) exercises
# the exact-intermediate exclusions.
_TYPES64 = (U8, I8, I32, U64, I64)
_VARS64 = {t: (h.var(f"p{t}", t), h.var(f"q{t}", t)) for t in _TYPES64}

_BINARY64 = (
    E.Add, E.Sub, E.Mul, E.Div, E.Mod, E.Min, E.Max,
    E.BitAnd, E.BitOr, E.BitXor, E.Shl, E.Shr,
)
_FPIR_SAME64 = (
    F.SaturatingAdd, F.SaturatingSub, F.Absd,
    F.HalvingAdd, F.HalvingSub, F.RoundingHalvingAdd,
    F.WideningAdd, F.WideningSub, F.WideningMul,
)


@st.composite
def exprs64(draw, t: ScalarType = None, depth: int = 3):
    """A random well-typed expression biased toward 64-bit corners."""
    if t is None:
        t = draw(st.sampled_from(_TYPES64))
    if depth <= 0 or draw(st.integers(0, 4)) == 0:
        # Reinterprets recurse into types outside the var pool (e.g.
        # u32 from i32); those leaves fall back to constants.
        if t in _VARS64 and draw(st.booleans()):
            return draw(st.sampled_from(_VARS64[t]))
        return h.const(t, draw(st.integers(t.min_value, t.max_value)))

    kind = draw(st.integers(0, 5))
    if kind == 0:  # cast from any pool type (64 -> narrow and back)
        src = draw(st.sampled_from(_TYPES64))
        return E.Cast(t, draw(exprs64(t=src, depth=depth - 1)))
    if kind == 1:  # reinterpret the opposite signedness (u64 <-> i64)
        src = t.with_signed(not t.signed)
        return E.Reinterpret(t, draw(exprs64(t=src, depth=depth - 1)))
    if kind == 2:  # FPIR, re-expressed at type t via a cast if needed
        cls = draw(st.sampled_from(_FPIR_SAME64))
        a = draw(exprs64(t=t, depth=depth - 1))
        b = draw(exprs64(t=t, depth=depth - 1))
        try:
            inner = cls(a, b)
        except E.TypeError_:
            return draw(exprs64(t=t, depth=depth - 1))
        return inner if inner.type == t else E.Cast(t, inner)
    if kind == 3:  # fused multiply-shift: 128-bit intermediates at 64
        # RoundingMulShr's expansion needs to widen *past* the 128-bit
        # product, which no backend supports; only plain MulShr types at
        # 64 bits.
        pool = (F.MulShr,) if t.bits >= 64 else (F.MulShr, F.RoundingMulShr)
        cls = draw(st.sampled_from(pool))
        a = draw(exprs64(t=t, depth=depth - 1))
        b = draw(exprs64(t=t, depth=depth - 1))
        shift = h.const(t, draw(st.integers(0, t.bits - 1)))
        try:
            inner = cls(a, b, shift)
        except E.TypeError_:
            return draw(exprs64(t=t, depth=depth - 1))
        return inner if inner.type == t else E.Cast(t, inner)
    if kind == 4:  # select on a 64-bit comparison
        ct = draw(st.sampled_from(_TYPES64))
        cond = draw(st.sampled_from((E.LT, E.LE, E.GT, E.GE, E.EQ, E.NE)))(
            draw(exprs64(t=ct, depth=depth - 2)),
            draw(exprs64(t=ct, depth=depth - 2)),
        )
        return E.Select(
            cond,
            draw(exprs64(t=t, depth=depth - 1)),
            draw(exprs64(t=t, depth=depth - 1)),
        )
    cls = draw(st.sampled_from(_BINARY64))
    return cls(
        draw(exprs64(t=t, depth=depth - 1)),
        draw(exprs64(t=t, depth=depth - 1)),
    )


def _all_backends(e, env, lanes):
    ref = evaluate_reference(e, env, lanes=lanes)
    clo = compile_expr(e)(env, lanes)
    arr = compile_expr_array(e)(env, lanes)
    return ref, clo, arr


# ----------------------------------------------------------------------
# Differential properties (the acceptance gate: lane-exact, no tolerance)
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(e=exprs(), data=st.data(), lanes=st.integers(1, 4))
def test_array_matches_closure_and_reference(e, data, lanes):
    env = _env_for(e, data, lanes)
    ref, clo, arr = _all_backends(e, env, lanes)
    assert arr == clo == ref
    assert all(type(v) is int for v in arr)  # tolist() restores ints


@settings(max_examples=150, deadline=None)
@given(e=exprs64(), data=st.data(), lanes=st.integers(1, 4))
def test_array_matches_at_64_bits(e, data, lanes):
    env = _env_for(e, data, lanes)
    ref, clo, arr = _all_backends(e, env, lanes)
    assert arr == clo == ref


@settings(max_examples=30, deadline=None)
@given(e=exprs64(), data=st.data())
def test_wide_blocks_match_narrow_blocks(e, data):
    # The same program over a verifier-grid-sized block must agree with
    # itself lane by lane (no dtype surprises past small-array paths).
    lanes = 256
    env = _env_for(e, data, lanes)
    arr = compile_expr_array(e)(env, lanes)
    clo = compile_expr(e)(env, lanes)
    assert arr == clo


def _consts_as_vars(e):
    """``e`` with each ``Const`` leaf replaced by a ``Var`` of its type,
    and the value each such ``Var`` holds."""
    vars_of = {}

    def sub(node):
        if isinstance(node, E.Const):
            if node not in vars_of:
                vars_of[node] = h.var(f"k{len(vars_of)}", node.type)
            return vars_of[node]
        if not node.children:
            return node
        return node.with_children([sub(c) for c in node.children])

    return sub(e), {v.name: c.value for c, v in vars_of.items()}


@settings(max_examples=200, deadline=None)
@given(e=st.one_of(exprs(), exprs64()), data=st.data(),
       lanes=st.integers(1, 4))
def test_const_leaf_matches_broadcast_var(e, data, lanes):
    # The rule verifier checks each constant choice by holding a variable
    # at the constant's value on every lane: that must evaluate exactly
    # like the constant, including the constant-shift kernels.
    env = _env_for(e, data, lanes)
    held_e, held = _consts_as_vars(e)
    held_env = dict(env, **{name: [v] * lanes for name, v in held.items()})
    variables = [n for n in held_e.walk() if isinstance(n, E.Var)]
    assert (
        evaluate_reference(held_e, held_env, lanes=lanes),
        compile_expr(held_e)(held_env, lanes),
        compile_expr_array(held_e)(prepare_env(held_env, variables), lanes),
    ) == _all_backends(e, env, lanes)


class TestDirectedCorners:
    """Named regressions for the promotion-analysis boundaries."""

    def _agree(self, e, env, lanes):
        ref, clo, arr = _all_backends(e, env, lanes)
        assert arr == clo == ref
        return arr

    def test_i32_widening_mul_stays_int64(self):
        a, b = h.var("a", I32), h.var("b", I32)
        e = F.WideningMul(a, b)  # i32 x i32 -> i64: max |product| < 2^63
        fn = compile_expr_array(e)
        assert "object" not in fn.reg_dtypes
        env = {"a": [I32.min_value, I32.max_value, -1],
               "b": [I32.min_value, I32.max_value, I32.min_value]}
        self._agree(e, env, 3)

    def test_u32_widening_mul_falls_back(self):
        a, b = h.var("a", U32), h.var("b", U32)
        e = F.WideningMul(a, b)  # u32 x u32 -> u64: exceeds int64
        fn = compile_expr_array(e)
        assert fn.object_step_count > 0
        env = {"a": [U32.max_value, 0], "b": [U32.max_value, 1]}
        assert self._agree(e, env, 2) == [U32.max_value ** 2, 0]

    def test_u64_wrap_add_mul(self):
        x, y = h.var("x", U64), h.var("y", U64)
        env = {"x": [U64.max_value, 1 << 63], "y": [U64.max_value, 1 << 63]}
        assert self._agree(E.Add(x, y), env, 2) == [U64.max_value - 1, 0]
        self._agree(E.Mul(x, y), env, 2)
        self._agree(E.Shl(x, y), env, 2)

    def test_i64_saturating_add_is_excluded_from_fast_tier(self):
        x, y = h.var("x", I64), h.var("y", I64)
        e = F.SaturatingAdd(x, y)  # true sum can overflow int64
        fn = compile_expr_array(e)
        assert fn.object_step_count > 0
        env = {"x": [I64.max_value, I64.min_value, 5],
               "y": [I64.max_value, I64.min_value, -5]}
        assert self._agree(e, env, 3) == [I64.max_value, I64.min_value, 0]

    def test_i16_saturating_add_stays_int64(self):
        x, y = h.var("x", I16), h.var("y", I16)
        fn = compile_expr_array(F.SaturatingAdd(x, y))
        assert "object" not in fn.reg_dtypes

    def test_64bit_mul_shr_128bit_intermediate(self):
        x, y = h.var("x", I64), h.var("y", I64)
        e = F.MulShr(x, y, h.const(I64, 10))
        env = {"x": [I64.max_value, I64.min_value],
               "y": [I64.max_value, I64.max_value]}
        self._agree(e, env, 2)

    def test_downcast_returns_to_fast_tier(self):
        # u64 intermediate, narrowed back to u8: the nodes after the
        # narrowing cast must run in the int64 tier again.
        x, y = h.var("x", U64), h.var("y", U64)
        narrow = E.Cast(U8, E.Add(x, y))
        e = E.Add(narrow, h.const(U8, 1))
        fn = compile_expr_array(e)
        assert fn.exec_tiers[-1] == "int64"  # final add is fast-tier
        assert fn.object_step_count > 0  # the u64 add was not
        # The narrowing cast itself is a downcast step: object math,
        # int64 storage.
        assert "object" in fn.exec_tiers
        env = {"x": [U64.max_value], "y": [2]}  # wraps to 1, +1 -> 2
        assert self._agree(e, env, 1) == [2]

    def test_div_mod_corners(self):
        x, y = h.var("x", I8), h.var("y", I8)
        env = {"x": [-128, 7, -7, 100], "y": [-1, 0, 2, -3]}
        self._agree(E.Div(x, y), env, 4)
        self._agree(E.Mod(x, y), env, 4)

    def test_shift_corners(self):
        x, s = h.var("x", I16), h.var("s", I16)
        env = {"x": [-1, 1, I16.min_value, 3], "s": [20, -20, 15, -1]}
        self._agree(E.Shl(x, s), env, 4)
        self._agree(E.Shr(x, s), env, 4)

    def test_out_of_machine_range_inputs_wrap(self):
        # Raw env values beyond int64 make np.asarray raise; the var
        # step must wrap them in exact arithmetic first, like the
        # reference walker does.
        x = h.var("x", U8)
        e = E.Add(x, h.const(U8, 1))
        env = {"x": [(1 << 100) + 5, 3]}
        assert compile_expr_array(e)(env, 2) == \
            evaluate_reference(e, env, lanes=2)


class TestCallContract:
    """The ndarray program honours the closure backend's error contract."""

    def test_unbound_variable_raises(self):
        x = h.var("x", U8)
        with pytest.raises(EvalError):
            compile_expr_array(x)({}, 1)

    def test_lane_mismatch_raises(self):
        x, y = h.var("x", U8), h.var("y", U8)
        with pytest.raises(EvalError):
            compile_expr_array(E.Add(x, y))({"x": [1, 2], "y": [1]}, 2)

    def test_disjoint_env_lane_inference_raises(self):
        x = h.var("x", U8)
        with pytest.raises(EvalError):
            evaluate(x + 1, {"unrelated": [1, 2]}, backend="numpy")

    def test_constant_expr_with_empty_env(self):
        assert evaluate(h.const(U8, 7) + 1, {}, backend="numpy") == [8]

    def test_compile_is_memoized_on_the_interned_node(self):
        x = h.var("x", I16)
        assert compile_expr_array(x + 1) is compile_expr_array(x + 1)

    @pytest.mark.parametrize("kernel", ["_np_wrap", "_np_saturate"])
    def test_one_kernel_per_type(self, kernel):
        # programs hold these kernels, so one per program would grow
        # with the program cache
        make = getattr(array_backend, kernel)
        made = {t: make(t) for t in (U8, I8, I16, U32, I32, I64)}
        assert all(make(t) is k for t, k in made.items())
        assert len({id(k) for k in made.values()}) == len(made)
        arr = np.array([-300, 5, 300], dtype=np.int64)
        assert made[U8](arr).tolist() == (
            [212, 5, 44] if kernel == "_np_wrap" else [0, 5, 255])

    def test_register_handler_invalidates_array_programs(self):
        x = h.var("x", U8)
        e = E.Add(x, h.const(U8, 1))
        env = {"x": [1, 2]}
        assert evaluate(e, env, backend="numpy") == [2, 3]
        try:
            _ev.register_handler(
                E.Add, lambda node, kids: [99] * len(kids[0])
            )
            assert evaluate(e, env, backend="numpy") == [99, 99]
        finally:
            _ev._HANDLERS.pop(E.Add, None)
            clear_compile_cache()
            clear_array_compile_cache()
        assert evaluate(e, env, backend="numpy") == [2, 3]


class TestBackendSelection:
    def test_effective_backend_resolution(self):
        assert effective_backend("closure") == "closure"
        assert effective_backend("numpy") == "numpy"
        assert effective_backend("auto") == "auto"
        with pytest.raises(ValueError):
            effective_backend("cuda")

    def test_set_default_backend_round_trip(self):
        prev = set_default_backend("closure")
        try:
            assert get_default_backend() == "closure"
            assert effective_backend(None) == "closure"
        finally:
            set_default_backend(prev)
        assert get_default_backend() == prev

    def test_auto_dispatches_on_lane_count(self):
        x = h.var("x", I16)
        fn = compile_for_backend(E.Add(x, x), "auto")
        narrow = {"x": list(range(4))}
        assert fn(narrow, 4) == [2 * v for v in range(4)]
        assert fn._array is None  # below threshold: closures only
        wide_n = AUTO_LANES_THRESHOLD
        wide = {"x": list(range(wide_n))}
        assert fn(wide, wide_n) == [2 * v for v in range(wide_n)]
        assert fn._array is not None  # wide call compiled the ndarray program

    def test_explicit_backend_beats_default(self):
        x = h.var("x", I16)
        prev = set_default_backend("closure")
        try:
            fn = compile_for_backend(E.Add(x, x), "numpy")
            assert type(fn).__name__ == "ArrayCompiledExpr"
        finally:
            set_default_backend(prev)
