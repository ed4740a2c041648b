"""Machine layer: lowering, simulation, baselines."""

from .._lazy import lazy_exports
from .lowerer import Lowerer, LoweringError  # noqa: F401
from .program import AsmLine, format_assembly, linearize  # noqa: F401
from .simulator import (  # noqa: F401
    CostBreakdown,
    cost_cycles,
    instruction_count,
    simulate,
)

# the LLVM baseline is built only by the compilers that compare with it
__getattr__, __dir__ = lazy_exports(globals(), {
    name: ".llvm_baseline" for name in ("LLVMBaseline", "LLVMCompileError")
})
