"""Figure 5: runtime speedups over LLVM instruction selection.

For every benchmark x backend, compile with:

* the **LLVM baseline** (falling back to the §5.1 q31 substitution when
  LLVM cannot compile — depthwise_conv/matmul/mul on HVX);
* **PITCHFORK** under the §5 leave-one-out protocol (synthesized rules
  whose only provenance is the benchmark under test are excluded);
* the **Rake oracle** on ARM and HVX (Rake has no x86 backend).

Runtime is the simulator's modelled cycles per vector iteration; each
compiled program is also executed against the interpreter on random
inputs, so every number in the table is backed by a lane-exact
correctness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fabric.jobs import RuntimeParams, cell_specs
from ..interp import compile_for_backend
from ..machine.rake_oracle import RAKE_TARGETS
from ..pipeline import llvm_compile, pitchfork_compile, rake_compile
from ..session import CompilerSession
from ..targets import ALL_TARGETS, ARM, HVX, X86, Target
from ..workloads import Workload

__all__ = ["BenchmarkResult", "RuntimeEvaluation", "run_runtime_evaluation"]


@dataclass
class BenchmarkResult:
    workload: str
    target: str
    llvm_cycles: float
    pitchfork_cycles: float
    rake_cycles: Optional[float] = None
    llvm_substituted: bool = False
    verified: bool = False

    @property
    def speedup(self) -> float:
        """PITCHFORK speedup over LLVM (Figure 5's bars)."""
        return self.llvm_cycles / self.pitchfork_cycles

    @property
    def rake_speedup(self) -> Optional[float]:
        if self.rake_cycles is None:
            return None
        return self.llvm_cycles / self.rake_cycles


@dataclass
class RuntimeEvaluation:
    results: List[BenchmarkResult] = field(default_factory=list)

    def for_target(self, target_name: str) -> List[BenchmarkResult]:
        return [r for r in self.results if r.target == target_name]

    def geomean_speedup(self, target_name: str) -> float:
        vals = [r.speedup for r in self.for_target(target_name)]
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    def max_speedup(self, target_name: str) -> float:
        return max(r.speedup for r in self.for_target(target_name))

    def rake_gap(self, target_name: str) -> Optional[float]:
        """Mean PITCHFORK slowdown vs Rake (paper: 2% ARM, 13% HVX)."""
        pairs = [
            (r.pitchfork_cycles, r.rake_cycles)
            for r in self.for_target(target_name)
            if r.rake_cycles is not None
        ]
        if not pairs:
            return None
        ratios = [p / k for p, k in pairs]
        return math.exp(sum(math.log(v) for v in ratios) / len(ratios)) - 1.0

    def format_table(self) -> str:
        """The Figure 5 data as text."""
        lines = [
            f"{'benchmark':<16} {'x86':>7} {'ARM':>7} {'HVX':>7} "
            f"{'Rake ARM':>9} {'Rake HVX':>9}"
        ]
        by_wl: Dict[str, Dict[str, BenchmarkResult]] = {}
        for r in self.results:
            by_wl.setdefault(r.workload, {})[r.target] = r

        def fmt(r: Optional[BenchmarkResult], rake: bool = False) -> str:
            if r is None:
                return "-"
            v = r.rake_speedup if rake else r.speedup
            if v is None:
                return "-"
            star = "*" if r.llvm_substituted else ""
            return f"{v:.2f}{star}"

        for wl, per_target in by_wl.items():
            lines.append(
                f"{wl:<16} {fmt(per_target.get('x86-avx2')):>7} "
                f"{fmt(per_target.get('arm-neon')):>7} "
                f"{fmt(per_target.get('hexagon-hvx')):>7} "
                f"{fmt(per_target.get('arm-neon'), rake=True):>9} "
                f"{fmt(per_target.get('hexagon-hvx'), rake=True):>9}"
            )
        lines.append("-" * 60)
        for t in ("x86-avx2", "arm-neon", "hexagon-hvx"):
            lines.append(
                f"geomean {t:<12} {self.geomean_speedup(t):.2f}x "
                f"(max {self.max_speedup(t):.2f}x)"
            )
        for t in RAKE_TARGETS:
            gap = self.rake_gap(t)
            if gap is not None:
                lines.append(
                    f"PITCHFORK vs Rake on {t}: {gap * 100:+.1f}% cycles"
                )
        lines.append("(* = LLVM compiled via the §5.1 q31 substitution)")
        return "\n".join(lines)


def run_one(
    wl: Workload,
    target: Target,
    with_rake: bool = True,
    verify_lanes: int = 32,
    leave_one_out: bool = True,
    verify_rounds: int = 3,
    lift_strategy: str = "greedy",
    eval_backend: Optional[str] = None,
    trace=None,
) -> BenchmarkResult:
    """Compile one benchmark on one target with all compilers + verify.

    The lane-exact execution check runs ``verify_rounds`` rounds of fresh
    random inputs; every program (source, PITCHFORK, LLVM, Rake) is
    compiled once under ``eval_backend`` (closure/numpy/auto; None =
    process default) and reused across rounds.  ``trace`` opts the
    PITCHFORK compile into observability (an
    :class:`~repro.observe.Observation`), so a fabric sweep reports the
    same pipeline counters whatever ``jobs`` is.
    """
    exclude = {f"synth:{wl.name}"} if leave_one_out else set()
    pf = pitchfork_compile(
        wl.expr, target, var_bounds=wl.var_bounds, exclude_sources=exclude,
        lift_strategy=lift_strategy, trace=trace,
    )
    llvm = llvm_compile(wl.expr, target, var_bounds=wl.var_bounds)

    src_fn = compile_for_backend(wl.expr, eval_backend)
    pf_fn = compile_for_backend(pf.lowered, eval_backend)
    llvm_fn = compile_for_backend(llvm.lowered, eval_backend)
    rake = None
    rake_cycles = None
    if with_rake and target.name in RAKE_TARGETS:
        rake = rake_compile(wl.expr, target, var_bounds=wl.var_bounds)
        rake_cycles = rake.cost().total
    rake_fn = (
        compile_for_backend(rake.lowered, eval_backend)
        if rake is not None
        else None
    )

    verified = True
    for round_idx in range(verify_rounds):
        env = wl.random_env(lanes=verify_lanes, seed=11 + round_idx)
        ref = src_fn(env, verify_lanes)
        if pf_fn(env, verify_lanes) != ref:
            verified = False
        if llvm_fn(env, verify_lanes) != ref:
            verified = False
        if rake_fn is not None and rake_fn(env, verify_lanes) != ref:
            verified = False

    return BenchmarkResult(
        workload=wl.name,
        target=target.name,
        llvm_cycles=llvm.cost().total,
        pitchfork_cycles=pf.cost().total,
        rake_cycles=rake_cycles,
        llvm_substituted=llvm.q31_retry is not None,
        verified=verified,
    )


def run_runtime_evaluation(
    workload_names: Optional[List[str]] = None,
    targets: Optional[List[Target]] = None,
    with_rake: bool = True,
    lift_strategy: str = RuntimeParams.lift_strategy,
    session: Optional[CompilerSession] = None,
) -> RuntimeEvaluation:
    """Regenerate the full Figure 5 dataset.

    Runs on the execution fabric: one leave-one-out task per (workload,
    target) cell.  Modelled cycles are deterministic, so cells are
    cacheable — keyed by the workload expression, the exact (filtered)
    rulebase fingerprint, the lift strategy, and the process-default
    evaluation backend the lane-exact checks run under.  The
    ``session`` supplies the cache, the worker pool and the
    cross-process observability (see :func:`repro.fabric.run_tasks`).
    """
    params = RuntimeParams(
        with_rake=with_rake, leave_one_out=True, lift_strategy=lift_strategy
    )
    specs = cell_specs("runtime", params, workload_names,
                       targets if targets is not None else [X86, ARM, HVX])
    ev = RuntimeEvaluation()
    for res in (session or CompilerSession()).run_tasks(specs):
        if not res.ok:
            raise RuntimeError(
                f"runtime cell {res.spec.key} failed: {res.error}"
            )
        v = res.value
        ev.results.append(
            BenchmarkResult(
                workload=res.spec.key[0],
                target=res.spec.key[1],
                llvm_cycles=v["llvm_cycles"],
                pitchfork_cycles=v["pitchfork_cycles"],
                rake_cycles=v["rake_cycles"],
                llvm_substituted=v["llvm_substituted"],
                verified=v["verified"],
            )
        )
    return ev
