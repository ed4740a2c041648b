"""Reference interpreter for core IR, FPIR and lowered target programs.

Backends with identical exact-integer semantics:

* :func:`evaluate` — the public entry point; compiles each hash-consed
  expression once into a flat register program and executes it under
  the selected backend (``closure`` | ``numpy`` | ``auto``, see
  :mod:`.backend` for the selection API);
* :mod:`.compiled` — the closure backend: one Python closure per node,
  exact unbounded-int semantics at any width, always available;
* :mod:`.array_backend` — the NumPy backend: one ndarray op per node
  over int64/object lane blocks;
* :func:`evaluate_reference` — the original recursive tree-walk,
  retained as the executable specification both compiled backends are
  property-tested against.
"""

from .evaluator import (  # noqa: F401
    EvalError,
    Value,
    const_fold_node,
    evaluate,
    evaluate_reference,
    evaluate_scalar,
    register_handler,
)
from .compiled import (  # noqa: F401
    CompiledExpr,
    clear_compile_cache,
    compile_expr,
)
from .backend import (  # noqa: F401
    AUTO_LANES_THRESHOLD,
    BACKENDS,
    compile_for_backend,
    effective_backend,
    get_default_backend,
    maybe_prepare_env,
    set_default_backend,
)
