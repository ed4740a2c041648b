"""PITCHFORK's compile pipeline: lift to FPIR, then lower to the target.

This is the user-facing facade (Figure 1's "online" path)::

    from repro import pipeline, targets
    prog = pipeline.pitchfork_compile(expr, targets.ARM)
    print(prog.assembly())
    cycles = prog.cost().total
    out = prog.run({"a": [...], "b": [...]})
    print(prog.stats.format_table())   # per-pass timing breakdown

The pipeline itself is an instrumented :class:`~repro.passes.PassManager`
run over four passes — canonicalize, lift, lower, backend — whose per-pass
wall time, rewrite counts and node counts land in the compiled program's
:class:`~repro.passes.CompileStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .analysis import BoundsAnalyzer, Interval
from .ir.expr import Expr
from .lifting.canonicalize import CanonicalizePass
from .lifting.lifter import EGraphLiftPass, LIFT_STRATEGIES, Lifter, LiftPass
from .machine.llvm_baseline import LLVMBaseline, LLVMCompileError
from .machine.lowerer import Lowerer, LowerPass
from .machine.backend_passes import BackendPass, run_backend_passes
from .machine.program import AsmLine, format_explained, linearize
from .machine.simulator import CostBreakdown, cost_cycles, simulate
from .observe import Observation
from .passes import CompileStats, PassContext, PassManager
from .targets import Target

__all__ = [
    "CompiledProgram",
    "PitchforkCompiler",
    "pitchfork_compile",
    "llvm_compile",
    "rake_compile",
    "LLVMCompileError",
]


@dataclass
class CompiledProgram:
    """A lowered program plus provenance and measurement helpers."""

    source: Expr
    lifted: Optional[Expr]
    lowered: Expr
    target: Target
    compiler: str  # 'pitchfork' | 'llvm' | 'rake'
    compile_seconds: float = 0.0
    lift_rules_used: List[str] = field(default_factory=list)
    swizzle_discount: float = 0.0
    #: per-pass breakdown (None for flows not run through the PassManager)
    stats: Optional[CompileStats] = None
    #: the observation bundle of a traced compile (None when tracing off);
    #: its provenance answers "which rule chain produced this instruction"
    observation: Optional[Observation] = None
    _lines: Optional[List[AsmLine]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def cost(self, lanes: Optional[int] = None) -> CostBreakdown:
        """Modelled cycles per vector iteration."""
        return cost_cycles(
            self.lowered,
            self.target,
            lanes=lanes,
            swizzle_discount=self.swizzle_discount,
        )

    def run(
        self, env: Mapping[str, Sequence[int]], lanes: Optional[int] = None
    ) -> List[int]:
        """Execute the lowered program (exact reference semantics)."""
        return simulate(self.lowered, env, lanes=lanes)

    def linearized(self) -> List[AsmLine]:
        """The instruction schedule, linearized once and cached."""
        if self._lines is None:
            self._lines = linearize(self.lowered)
        return self._lines

    def assembly(self) -> str:
        """Figure 3-style listing."""
        return "\n".join(str(line) for line in self.linearized())

    @property
    def provenance(self):
        """The per-node rule-chain record (None unless compiled with
        ``trace=``)."""
        return self.observation.provenance if self.observation else None

    def explain(self) -> str:
        """Provenance-annotated assembly: each line names the lift/lower
        rule chain that produced its instruction.

        Requires the program to have been compiled with an
        :class:`~repro.observe.Observation` (``trace=``); raises
        ``ValueError`` otherwise.
        """
        if self.observation is None:
            raise ValueError(
                "no provenance recorded: compile with trace= "
                "(an Observation) to enable --explain"
            )
        return format_explained(self.lowered, self.observation.provenance)

    def register_pressure(self):
        """Max-live register-pressure report for the lowered program
        (:class:`~repro.analysis.dataflow.PressureReport`)."""
        from .analysis.dataflow import MachineProgram, register_pressure

        return register_pressure(MachineProgram.from_expr(self.lowered))

    @property
    def instructions(self) -> List[str]:
        return [line.mnemonic for line in self.linearized()]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompiledProgram {self.compiler}/{self.target.name} "
            f"{len(self.instructions)} instrs>"
        )


class PitchforkCompiler:
    """Configurable lift+lower pipeline (ablations, leave-one-out).

    The pipeline is an ordered pass list run by a
    :class:`~repro.passes.PassManager`; ``self.passes`` is the manager and
    may be inspected or re-composed by experiments.
    """

    def __init__(
        self,
        target: Target,
        use_synthesized: bool = True,
        exclude_sources: Iterable[str] = (),
        verify_each: bool = False,
        lift_strategy: str = "greedy",
    ):
        self.target = target
        self.lift_strategy = lift_strategy
        self.lifter = Lifter(
            use_synthesized=use_synthesized,
            exclude_sources=exclude_sources,
            strategy=lift_strategy,
        )
        self.lowerer = Lowerer(
            target,
            use_synthesized=use_synthesized,
            exclude_sources=exclude_sources,
        )
        lift_pass = (
            EGraphLiftPass(self.lifter, scorer=self._cycle_scorer)
            if lift_strategy == "egraph"
            else LiftPass(self.lifter)
        )
        self.passes = PassManager(
            [
                CanonicalizePass(),
                lift_pass,
                LowerPass(self.lowerer),
                BackendPass(),  # shared downstream LLVM work (§5.2)
            ],
            # -verify-each mode: re-check IR well-formedness after every
            # pass (raises PassVerificationError naming the bad pass).
            verify_each=verify_each,
        )

    def _cycle_scorer(self, term, var_bounds):
        """Score one lift-extraction candidate: simulated cycles of its
        lowering for this compiler's target (None if it cannot lower).

        This is what makes the e-graph strategy target-aware: the
        target-agnostic cost is only a proxy, so the K cheapest extracted
        forms are judged by the cycle model the evaluation actually
        reports, with the greedy form as the never-worse anchor.
        """
        try:
            lowered = self.lowerer.lower(term, BoundsAnalyzer(var_bounds))
        except Exception:
            return None
        return cost_cycles(lowered, self.target).total

    def compile(
        self,
        expr: Expr,
        var_bounds: Optional[Dict[str, Interval]] = None,
        trace: Optional[Observation] = None,
    ) -> CompiledProgram:
        """Run the pass pipeline on ``expr``.

        ``trace`` opts into observability: pass an
        :class:`~repro.observe.Observation` and the compile's root span
        and per-pass spans land on its tracer, every rule firing is
        counted, and instruction provenance is recorded (see
        :meth:`CompiledProgram.explain`).  ``None`` (default) keeps the
        rewriters on their uninstrumented paths; the spans that time the
        passes then go on a private tracer.
        """
        ctx = PassContext(
            target=self.target, var_bounds=var_bounds, observe=trace
        )
        lowered, stats = self.passes.run(expr, ctx)
        return CompiledProgram(
            source=expr,
            lifted=ctx.extras.get("lifted"),
            lowered=lowered,
            target=self.target,
            compiler="pitchfork",
            compile_seconds=stats.total_seconds,
            lift_rules_used=list(ctx.extras.get("lift_rules_used", [])),
            stats=stats,
            observation=trace,
        )


_COMPILER_CACHE: Dict[tuple, PitchforkCompiler] = {}
_BASELINE_CACHE: Dict[tuple, "LLVMBaseline"] = {}


def pitchfork_compile(
    expr: Expr,
    target: Target,
    var_bounds: Optional[Dict[str, Interval]] = None,
    use_synthesized: bool = True,
    exclude_sources: Iterable[str] = (),
    trace: Optional[Observation] = None,
    verify_each: bool = False,
    lift_strategy: str = "greedy",
) -> CompiledProgram:
    """One-shot PITCHFORK compilation.

    Compiler instances (rule sets + engines) are cached per
    configuration, as in a long-lived compiler process; per-expression
    state (bounds caches) is still fresh for every call.

    ``trace`` opts one compile into observability (spans, rule telemetry,
    provenance) — see :meth:`PitchforkCompiler.compile`.  ``verify_each``
    re-checks IR well-formedness after every pass and raises
    :class:`~repro.passes.PassVerificationError` naming the pass that
    broke the tree.  ``lift_strategy`` selects the lift search:
    ``"greedy"`` (the §3.2 TRS, default) or ``"egraph"`` (equality
    saturation + lowest-cost extraction, never costlier than greedy).
    """
    if lift_strategy not in LIFT_STRATEGIES:
        raise ValueError(
            f"unknown lift strategy {lift_strategy!r}; "
            f"expected one of {LIFT_STRATEGIES}"
        )
    key = (
        target.name, use_synthesized, frozenset(exclude_sources),
        verify_each, lift_strategy,
    )
    compiler = _COMPILER_CACHE.get(key)
    if compiler is None:
        compiler = PitchforkCompiler(
            target,
            use_synthesized=use_synthesized,
            exclude_sources=exclude_sources,
            verify_each=verify_each,
            lift_strategy=lift_strategy,
        )
        _COMPILER_CACHE[key] = compiler
    return compiler.compile(expr, var_bounds, trace=trace)


def rake_compile(
    expr: Expr,
    target: Target,
    var_bounds: Optional[Dict[str, Interval]] = None,
) -> CompiledProgram:
    """Compile via the Rake-like search-based oracle (ARM/HVX only)."""
    from .machine.rake_oracle import RakeSelector

    t0 = time.perf_counter()
    analyzer = BoundsAnalyzer(var_bounds)
    lifted = Lifter(use_synthesized=True).lift(expr, analyzer).expr
    selector = RakeSelector(target)
    lowered, _ = selector.best_lowering(lifted, BoundsAnalyzer(var_bounds))
    elapsed = time.perf_counter() - t0
    return CompiledProgram(
        source=expr,
        lifted=lifted,
        lowered=lowered,
        target=target,
        compiler="rake",
        compile_seconds=elapsed,
        swizzle_discount=selector.swizzle_discount,
    )


def llvm_compile(
    expr: Expr,
    target: Target,
    var_bounds: Optional[Dict[str, Interval]] = None,
    q31_fallback: bool = False,
) -> CompiledProgram:
    """One-shot LLVM-baseline compilation (may raise LLVMCompileError).

    ``q31_fallback`` applies the §5.1 substitution (32-bit
    rounding_mul_shr sequence) — use it only after a plain attempt
    raised, mirroring the paper's protocol.
    """
    t0 = time.perf_counter()
    analyzer = BoundsAnalyzer(var_bounds)
    bkey = (target.name, q31_fallback)
    baseline = _BASELINE_CACHE.get(bkey)
    if baseline is None:
        baseline = LLVMBaseline(
            target, allow_q31_substitution=q31_fallback
        )
        _BASELINE_CACHE[bkey] = baseline
    lowered = baseline.compile(expr, analyzer)
    run_backend_passes(lowered)  # shared downstream LLVM work (§5.2)
    elapsed = time.perf_counter() - t0
    return CompiledProgram(
        source=expr,
        lifted=None,
        lowered=lowered,
        target=target,
        compiler="llvm+q31sub" if q31_fallback else "llvm",
        compile_seconds=elapsed,
    )
