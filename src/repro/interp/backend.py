"""Evaluation-backend selection: ``closure`` | ``numpy`` | ``auto``.

Two compiled backends share the flat register-program model:

* ``closure`` — :mod:`repro.interp.compiled` (PR 3): one Python closure
  per distinct hash-consed node, exact unbounded-int semantics at every
  width.  Always available; the differential reference.
* ``numpy`` — :mod:`repro.interp.array_backend`: one ndarray op per node
  over int64/object lane blocks.  Lane-exact with the closure backend
  (property-tested), dramatically faster once a call carries more than
  a handful of lanes.
* ``auto`` — compile both lazily and dispatch per call on the lane
  count: the ndarray program's fixed per-op overhead (~µs) loses to
  closures below :data:`AUTO_LANES_THRESHOLD` lanes and wins above it.

The process-wide default is ``auto`` and can be overridden with the
``REPRO_EVAL_BACKEND`` environment variable, :func:`set_default_backend`
(used by the CLI ``--eval-backend`` flag and the pytest option of the
same name), or per call sites' explicit ``backend=`` arguments.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Sequence

from ..ir import expr as E
from .evaluator import Value

__all__ = [
    "BACKENDS",
    "AUTO_LANES_THRESHOLD",
    "get_default_backend",
    "set_default_backend",
    "effective_backend",
    "compile_for_backend",
    "auto_program",
]

#: Recognised backend names.
BACKENDS = ("closure", "numpy", "auto")

#: ``auto`` switches from the closure program to the ndarray program at
#: this lane count.  Calibrated against ``benchmarks/bench_interp.py``:
#: below ~64 lanes the ndarray program's constant per-op cost dominates.
AUTO_LANES_THRESHOLD = 64

def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown eval backend {name!r} (choose from {BACKENDS})"
        )
    return name


_DEFAULT_BACKEND = _validate(os.environ.get("REPRO_EVAL_BACKEND", "auto"))


def get_default_backend() -> str:
    """The process-wide default backend name (one of :data:`BACKENDS`)."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _DEFAULT_BACKEND
    prev, _DEFAULT_BACKEND = _DEFAULT_BACKEND, _validate(name)
    return prev


def effective_backend(backend: Optional[str] = None) -> str:
    """Resolve ``backend`` (or the default) to the name that will run.

    ``None`` means "use the process default".  ``auto`` stays ``auto``
    (it is a real dispatch policy, not an alias) and is what cache
    fingerprints record.
    """
    return _validate(backend) if backend is not None else _DEFAULT_BACKEND


class _AutoCompiled:
    """Per-call dispatch between the closure and ndarray programs.

    Built from an expression, the closure program is compiled eagerly
    (it also provides lane inference) and the ndarray program on the
    first call that is wide enough to want it.  Both compiles are
    globally memoized on the hash-consed node, so the extra compile is
    paid once per expression per process.  Built by
    :func:`auto_program` from both programs, it holds no expression.
    """

    __slots__ = ("_expr", "_closure", "_array")

    def __init__(self, expr: Optional[E.Expr], closure, array=None):
        self._expr = expr
        self._closure = closure
        self._array = array

    def infer_lanes(self, env: Mapping[str, Sequence[int]]) -> int:
        return self._closure.infer_lanes(env)

    def __call__(
        self, env: Mapping[str, Sequence[int]], lanes: Optional[int] = None
    ) -> Value:
        if lanes is None:
            lanes = self._closure.infer_lanes(env)
        if lanes < AUTO_LANES_THRESHOLD:
            return self._closure(env, lanes)
        if self._array is None:
            from .array_backend import compile_expr_array

            self._array = compile_expr_array(self._expr)
        return self._array(env, lanes)


def maybe_prepare_env(
    env: Mapping[str, Sequence[int]],
    variables,
    lanes: int,
    backend: Optional[str] = None,
) -> Mapping[str, Sequence[int]]:
    """Pre-convert an environment's test vectors to int64 ndarrays when
    every evaluation at this lane count is guaranteed to run the ndarray
    backend (explicitly, or via ``auto`` past its lane threshold).

    Batched callers — the rule verifier's equivalence grid, SyGuS
    fingerprinting — evaluate many programs against one environment;
    converting each int64-tier vector once beats re-converting it per
    call.  Anything that might reach the closure backend keeps plain
    lists: its exact scalar kernels would silently wrap on ``np.int64``
    lane values.  ``variables`` supplies the per-variable types (any
    objects with ``.name``/``.type``).
    """
    resolved = effective_backend(backend)
    if resolved == "numpy" or (
        resolved == "auto" and lanes >= AUTO_LANES_THRESHOLD
    ):
        from .array_backend import prepare_env

        return prepare_env(env, variables)
    return env


def compile_for_backend(expr: E.Expr, backend: Optional[str] = None):
    """Compile ``expr`` under the selected backend.

    Returns a callable ``fn(env, lanes=None) -> Value`` that also
    exposes ``infer_lanes(env)``; every backend is globally memoized on
    the hash-consed root, so repeated calls are cheap.
    """
    name = effective_backend(backend)
    if name == "numpy":
        from .array_backend import compile_expr_array

        return compile_expr_array(expr)
    from .compiled import compile_expr

    program = compile_expr(expr)
    return program if name == "closure" else _AutoCompiled(expr, program)


def auto_program(closure, array):
    """``auto``'s per-call dispatch over a closure and an ndarray program
    compiled from one expression.  It keeps no reference to the
    expression, so a cache of programs does not keep theirs alive."""
    return _AutoCompiled(None, closure, array)
