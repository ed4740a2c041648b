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

from ._lazy import lazy_exports

# Nothing is imported until it is used: a process that compiles loads
# the compile path alone, not the fabric, the daemon or the evaluation.
__getattr__, __dir__ = lazy_exports(globals(), {
    **{name: f".{name}" for name in (
        "analysis", "fabric", "fpir", "interp", "ir", "lifting",
        "machine", "observe", "passes", "pipeline", "rulesets", "session",
        "targets", "trs", "verify",
    )},
    **{name: ".pipeline" for name in (
        "CompiledProgram", "LLVMCompileError", "PitchforkCompiler",
        "llvm_compile", "pitchfork_compile", "rake_compile",
    )},
})

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
