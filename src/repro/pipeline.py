"""The three compilers of the evaluation, each a pipeline of passes.

This is the user-facing facade (Figure 1's "online" path)::

    from repro import pipeline, targets
    prog = pipeline.pitchfork_compile(expr, targets.ARM)
    print(prog.assembly())
    cycles = prog.cost().total
    out = prog.run({"a": [...], "b": [...]})
    print(prog.stats.format_table())   # per-pass timing breakdown

Each compiler is a :class:`Compiler`: a pass list run by an instrumented
:class:`~repro.passes.PassManager`, whose per-pass wall time, rewrite
counts and node counts land in the program's :class:`CompileStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from . import rulesets
from ._lazy import lazy_exports
from .analysis import BoundsAnalyzer, Interval
from .ir.expr import Expr
from .lifting.canonicalize import CanonicalizePass
from .lifting.lifter import EGraphLiftPass, LIFT_STRATEGIES, Lifter, LiftPass
from .machine.lowerer import LowerMemos, Lowerer, LoweringError, LowerPass
from .machine.backend_passes import BackendPass
from .machine.program import AsmLine, format_explained, linearize
from .machine.simulator import CostBreakdown, cost_cycles, simulate
from .observe import Observation
from .passes import CompileStats, Pass, PassContext, PassManager
from .targets import Target, UnsupportedType
from .trs.rewriter import RewriteError

__all__ = [
    "CompiledProgram",
    "Compiler",
    "LLVMCompiler",
    "PitchforkCompiler",
    "RakeCompiler",
    "pitchfork_compile",
    "llvm_compile",
    "rake_compile",
    "LLVMCompileError",
]

# the baselines load with the first compiler that runs them
__getattr__, __dir__ = lazy_exports(
    globals(), {"LLVMCompileError": ".machine.llvm_baseline"}
)


@dataclass
class CompiledProgram:
    """A lowered program plus provenance and measurement helpers."""

    source: Expr
    lifted: Optional[Expr]
    lowered: Expr
    target: Target
    compiler: str  # 'pitchfork' | 'llvm' | 'llvm+q31sub' | 'rake'
    lift_rules_used: List[str] = field(default_factory=list)
    swizzle_discount: float = 0.0
    #: why the plain LLVM attempt failed, when the §5.1 q31 substitution
    #: compiled this program (None otherwise)
    q31_retry: Optional[str] = None
    #: per-pass breakdown read off the spans (None if not from a Compiler)
    stats: Optional[CompileStats] = None
    #: the observation bundle of a traced compile (None when tracing off);
    #: its provenance answers "which rule chain produced this instruction"
    observation: Optional[Observation] = None
    _lines: Optional[List[AsmLine]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def compile_seconds(self) -> float:
        """Whole-pipeline wall time: the ``compile`` span's duration."""
        return self.stats.total_seconds

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


class Compiler:
    """One compiler for one target: an ordered pass list run by a
    :class:`~repro.passes.PassManager`.

    ``self.passes`` is the manager and may be inspected or re-composed by
    experiments.  Every compile is one ``compile`` span with one nested
    span per pass, and the program's stats are read off them.
    """

    name: str  # the flow's tag on the programs it compiles

    def __init__(
        self, target: Target, passes: Sequence[Pass], verify_each: bool
    ):
        self.target = target
        # -verify-each mode: re-check IR well-formedness after every
        # pass (raises PassVerificationError naming the bad pass).
        self.passes = PassManager(passes, verify_each=verify_each)

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
        retry = ctx.extras.get("q31_retry")
        return CompiledProgram(
            source=expr,
            lifted=ctx.extras.get("lifted"),
            lowered=lowered,
            target=self.target,
            compiler=self.name if retry is None else f"{self.name}+q31sub",
            lift_rules_used=list(ctx.extras.get("lift_rules_used", [])),
            swizzle_discount=ctx.extras.get("swizzle_discount", 0.0),
            q31_retry=retry,
            stats=stats,
            observation=trace,
        )


class PitchforkCompiler(Compiler):
    """Configurable lift+lower pipeline (ablations, leave-one-out)."""

    name = "pitchfork"

    def __init__(
        self,
        target: Target,
        use_synthesized: bool = True,
        exclude_sources: Iterable[str] = (),
        verify_each: bool = False,
        lift_strategy: str = "greedy",
    ):
        rules = rulesets.pitchfork(target, use_synthesized, exclude_sources)
        self.lifter = Lifter(rules.lift, strategy=lift_strategy)
        self.lowerer = Lowerer(target, rules.lower)
        lift_pass = (
            EGraphLiftPass(self.lifter, scorer=self._cycle_scorer)
            if lift_strategy == "egraph"
            else LiftPass(self.lifter)
        )
        super().__init__(
            target,
            [
                CanonicalizePass(),
                lift_pass,
                LowerPass(self.lowerer),
                BackendPass(),  # shared downstream LLVM work (§5.2)
            ],
            verify_each,
        )

    def _cycle_scorer(self, var_bounds) -> "_CycleScorer":
        """The scorer for one lift's extraction candidates (see
        :class:`_CycleScorer`)."""
        return _CycleScorer(self.lowerer, var_bounds)


class LLVMCompiler(Compiler):
    """The LLVM baseline: LLVM-style selection (with the §5.1 retry),
    then the same downstream backend passes as PITCHFORK."""

    name = "llvm"

    def __init__(self, target: Target, verify_each: bool = False):
        from .machine.llvm_baseline import LLVMSelectPass

        super().__init__(
            target, [LLVMSelectPass(target), BackendPass()], verify_each
        )


class RakeCompiler(Compiler):
    """The Rake oracle (ARM/HVX only): PITCHFORK's canonicalize and
    greedy lift, then beam search over the extended rule space."""

    name = "rake"

    def __init__(self, target: Target, verify_each: bool = False):
        from .machine.rake_oracle import RakeSelector

        lift = LiftPass(Lifter(rulesets.rake(target).lift))
        passes = [CanonicalizePass(), lift, RakeSelector(target)]
        super().__init__(target, passes, verify_each)


class _CycleScorer:
    """Scores each term by the simulated cycles of its lowering for the
    lowerer's target (None if it cannot lower).

    This is what makes the e-graph strategy target-aware: the
    target-agnostic cost is only a proxy, so the K cheapest extracted
    forms are judged by the cycle model the evaluation actually
    reports, with the greedy form as the never-worse anchor.  The
    candidates share most subtrees, so all of one lift's lowerings go
    through one analyzer and one :class:`LowerMemos`, which die with the
    scorer.

    The first term scored, the greedy anchor, is lowered while the memos
    are still empty, so its tree and stats are those a fresh lowering
    gives; ``anchor`` keeps ``(term, lowered, stats)`` for
    :class:`LowerPass` to reuse when the lift keeps that term.  Nothing
    the scorer holds refers back to it, so it dies by reference counting
    when its lift returns.
    """

    def __init__(self, lowerer: Lowerer, var_bounds) -> None:
        self.lowerer = lowerer
        self.analyzer = BoundsAnalyzer(var_bounds)
        self.memos = LowerMemos()
        self.scored = 0
        self.anchor = None

    def __call__(self, term: Expr):
        self.scored += 1
        try:
            lowered, stats = self.lowerer.lower_with_stats(
                term, self.analyzer, memos=self.memos
            )
        except (LoweringError, RewriteError, UnsupportedType):
            return None
        if self.scored == 1:
            self.anchor = (term, lowered, stats)
        return cost_cycles(lowered, self.lowerer.target).total


_COMPILER_CACHE: Dict[tuple, Compiler] = {}


def _compiler(flow: type, target: Target, *config) -> Compiler:
    """The process-wide compiler of one flow and configuration.

    Compiler instances (rule sets + engines) are cached, as in a
    long-lived compiler process; per-expression state (bounds caches) is
    still fresh for every call.
    """
    key = (flow, target.name, *config)
    compiler = _COMPILER_CACHE.get(key)
    if compiler is None:
        compiler = _COMPILER_CACHE[key] = flow(target, *config)
    return compiler


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

    ``trace`` opts one compile into observability (spans, rule telemetry,
    provenance) — see :meth:`Compiler.compile`.  ``verify_each``
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
    compiler = _compiler(
        PitchforkCompiler, target, use_synthesized,
        frozenset(exclude_sources), verify_each, lift_strategy,
    )
    return compiler.compile(expr, var_bounds, trace=trace)


def rake_compile(
    expr: Expr,
    target: Target,
    var_bounds: Optional[Dict[str, Interval]] = None,
    verify_each: bool = False,
) -> CompiledProgram:
    """Compile via the Rake-like search-based oracle (ARM/HVX only)."""
    return _compiler(RakeCompiler, target, verify_each).compile(
        expr, var_bounds
    )


def llvm_compile(
    expr: Expr,
    target: Target,
    var_bounds: Optional[Dict[str, Interval]] = None,
    verify_each: bool = False,
) -> CompiledProgram:
    """One-shot LLVM-baseline compilation (may raise LLVMCompileError).

    A plain attempt that fails (64-bit lanes on HVX) is retried with the
    §5.1 q31 substitution inside the same compile: the program is then
    tagged ``llvm+q31sub`` and its ``q31_retry`` says why the plain
    attempt failed.
    """
    return _compiler(LLVMCompiler, target, verify_each).compile(
        expr, var_bounds
    )
