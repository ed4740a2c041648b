"""repro — a from-scratch reproduction of PITCHFORK (ASPLOS 2023).

PITCHFORK is a two-phase instruction selector for fixed-point digital
signal processing: portable integer expressions are *lifted* into a
fixed-point IR (FPIR) by a target-agnostic term-rewriting system, then
*lowered* into target-specific instructions (x86 AVX2 / ARM Neon / Hexagon
HVX) by per-target term-rewriting systems.

Quickstart::

    from repro import pitchfork_compile, targets
    from repro.workloads import by_name

    wl = by_name("sobel3x3")
    program = pitchfork_compile(wl.expr, targets.ARM)
    print(program.assembly())      # Figure 3-style listing
    print(program.cost().total)    # modelled cycles per vector

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

__version__ = "1.4.0"

from . import analysis  # noqa: F401
from . import fabric  # noqa: F401
from . import fpir  # noqa: F401
from . import interp  # noqa: F401
from . import ir  # noqa: F401
from . import lifting  # noqa: F401
from . import machine  # noqa: F401
from . import observe  # noqa: F401
from . import targets  # noqa: F401
from . import trs  # noqa: F401
from . import verify  # noqa: F401
from .pipeline import (  # noqa: F401
    CompiledProgram,
    LLVMCompileError,
    PitchforkCompiler,
    llvm_compile,
    pitchfork_compile,
    rake_compile,
)

__all__ = [
    "CompiledProgram",
    "LLVMCompileError",
    "PitchforkCompiler",
    "llvm_compile",
    "pitchfork_compile",
    "rake_compile",
    "analysis",
    "fpir",
    "interp",
    "ir",
    "lifting",
    "machine",
    "targets",
    "trs",
    "verify",
    "__version__",
]
