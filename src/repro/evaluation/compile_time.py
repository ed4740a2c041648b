"""Figure 6: compilation-time speedup over the LLVM baseline.

Each flow's fastest run is read off its pass spans and split into
selection and downstream time: the shared backend passes, whose running
time scales with the amount of IR each selector emits.  PITCHFORK emits
coarser (hence less) IR, so despite doing extra lift/lower work it
compiles most benchmarks at least as fast — with the biggest win on
softmax, whose primitive spelling is enormous (§5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fabric.jobs import CompileTimeParams, cell_specs
from ..passes import CompileStats
from ..pipeline import llvm_compile, pitchfork_compile
from ..session import CompilerSession
from ..targets import ARM, HVX, X86, Target
from ..workloads import Workload

__all__ = [
    "CompileTimeResult",
    "CompileTimeEvaluation",
    "PARTS",
    "aggregate_pass_breakdown",
    "format_pass_breakdown",
    "split_seconds",
    "run_compile_time_evaluation",
]

#: what Figure 6 compares: the whole compile and its two halves
PARTS = ("total", "selection", "downstream")
_PAPER_TARGETS = ("x86-avx2", "arm-neon", "hexagon-hvx")


def split_seconds(stats: CompileStats) -> Dict[str, float]:
    """One compile's total, selection and downstream seconds.

    Selection is every pass before ``backend`` (the last pass of both
    flows), downstream is ``backend``; all three are read off spans.
    """
    passes = {p.name: p.seconds for p in stats.passes}
    downstream = passes.pop("backend")
    return {
        "total": stats.total_seconds,
        "selection": sum(passes.values()),
        "downstream": downstream,
    }


@dataclass
class CompileTimeResult:
    workload: str
    target: str
    #: each flow's fastest run, per pass
    llvm: CompileStats
    pitchfork: CompileStats

    @property
    def speedup(self) -> float:
        return self.ratio("total")

    def ratio(self, part: str) -> float:
        """LLVM time over PITCHFORK time of one of :data:`PARTS`."""
        return (
            split_seconds(self.llvm)[part]
            / split_seconds(self.pitchfork)[part]
        )

    @classmethod
    def from_task(cls, res) -> "CompileTimeResult":
        """Rebuild from a finished ``compile-time`` fabric task."""
        if not res.ok:
            raise RuntimeError(
                f"compile-time cell {res.spec.key} failed: {res.error}"
            )
        return cls(
            *res.spec.key,
            llvm=CompileStats.from_dict(res.value["llvm"]),
            pitchfork=CompileStats.from_dict(res.value["pitchfork"]),
        )


@dataclass
class CompileTimeEvaluation:
    """A batch of Figure 6 measurements with table/JSON renderings."""

    results: List[CompileTimeResult] = field(default_factory=list)

    def geomean_ratio(self, target_name: str, part: str = "total") -> float:
        """Geometric-mean LLVM/PITCHFORK time ratio on one target."""
        vals = [
            r.ratio(part) for r in self.results if r.target == target_name
        ]
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    def _targets(self) -> List[str]:
        have = {r.target for r in self.results}
        return [t for t in _PAPER_TARGETS if t in have]

    def to_dict(self) -> dict:
        """Machine-readable snapshot (the ``BENCH_fig6.json`` payload)."""
        return {
            "results": [
                {
                    "workload": r.workload,
                    "target": r.target,
                    "speedup": r.speedup,
                    "llvm": r.llvm.to_dict(),
                    "pitchfork": r.pitchfork.to_dict(),
                }
                for r in self.results
            ],
            "geomean_speedup": {
                t: {part: self.geomean_ratio(t, part) for part in PARTS}
                for t in self._targets()
            },
            "pass_breakdown": aggregate_pass_breakdown(self.results),
        }

    def format_table(self) -> str:
        by_wl: Dict[str, Dict[str, CompileTimeResult]] = {}
        for r in self.results:
            by_wl.setdefault(r.workload, {})[r.target] = r
        lines = [f"{'benchmark':<16} {'x86':>6} {'ARM':>6} {'HVX':>6}"]
        for wl, per in by_wl.items():
            row = [f"{wl:<16}"]
            for t in _PAPER_TARGETS:
                r = per.get(t)
                row.append(f"{r.speedup:>6.2f}" if r else f"{'-':>6}")
            lines.append(" ".join(row))
        lines.append("-" * 40)
        for t in self._targets():
            lines.append(f"geomean {t}: " + ", ".join(
                f"{self.geomean_ratio(t, part):.2f}x {part}"
                for part in PARTS
            ))
        return "\n".join(lines)


def aggregate_pass_breakdown(
    results: List[CompileTimeResult],
) -> Dict[str, Dict[str, float]]:
    """Sum PITCHFORK's per-pass wall time and rewrite counts.

    Returns ``{pass_name: {"seconds": ..., "rewrites": ...}}`` in pipeline
    order, aggregated over every result's fastest PITCHFORK compile.
    """
    agg: Dict[str, Dict[str, float]] = {}
    for r in results:
        for p in r.pitchfork.passes:
            slot = agg.setdefault(p.name, {"seconds": 0.0, "rewrites": 0})
            slot["seconds"] += p.seconds
            slot["rewrites"] += p.rewrites
    return agg


def format_pass_breakdown(results: List[CompileTimeResult]) -> str:
    """Render the aggregated per-pass breakdown as a small table."""
    agg = aggregate_pass_breakdown(results)
    total = sum(v["seconds"] for v in agg.values())
    lines = [f"{'pass':<14} {'ms':>9} {'share':>6} {'rewrites':>9}"]
    for name, v in agg.items():
        share = v["seconds"] / total if total else 0.0
        lines.append(
            f"{name:<14} {v['seconds'] * 1000:>9.1f} {share:>5.0%} "
            f"{int(v['rewrites']):>9}"
        )
    lines.append(f"{'total':<14} {total * 1000:>9.1f}")
    return "\n".join(lines)


def measure_one(
    wl: Workload,
    target: Target,
    repeats: int = 3,
    lift_strategy: str = "greedy",
) -> CompileTimeResult:
    """Each flow's fastest of ``repeats`` compiles of one cell.

    The two flows take turns, one compile each per repeat, so a slow
    spell of a shared host lands on both rather than on all of one
    flow's runs.  The LLVM flow's §5.1 q31 retry runs inside its
    compile, so a cell that needs it is charged both attempts.
    """
    llvm_runs: List[CompileStats] = []
    pitchfork_runs: List[CompileStats] = []
    for _ in range(repeats):
        llvm_runs.append(
            llvm_compile(wl.expr, target, var_bounds=wl.var_bounds).stats
        )
        pitchfork_runs.append(pitchfork_compile(
            wl.expr, target, var_bounds=wl.var_bounds,
            lift_strategy=lift_strategy,
        ).stats)

    def fastest(runs: List[CompileStats]) -> CompileStats:
        return min(runs, key=lambda stats: stats.total_seconds)

    return CompileTimeResult(wl.name, target.name, fastest(llvm_runs),
                             fastest(pitchfork_runs))


def run_compile_time_evaluation(
    workload_names: Optional[List[str]] = None,
    targets: Optional[List[Target]] = None,
    repeats: int = CompileTimeParams.repeats,
    lift_strategy: str = CompileTimeParams.lift_strategy,
    session: Optional[CompilerSession] = None,
) -> CompileTimeEvaluation:
    """Run the Figure 6 compile-time sweep.

    Each (workload, target) cell is one fabric task; on a pooled
    ``session`` the cells time themselves in its worker processes.
    Timing cells are never cached — a stale wall-clock number is worse
    than no number — because the kind declares no cache parts, whatever
    cache the session holds.  The session's metrics and tracer observe
    the sweep itself (per-flow ``compile_seconds`` histograms, task
    spans); the timed compiles stay uninstrumented.  A ``repeats``
    below one raises ``ValueError`` before any cell runs.
    """
    params = CompileTimeParams(repeats=repeats, lift_strategy=lift_strategy)
    specs = cell_specs("compile-time", params, workload_names,
                       targets if targets is not None else [X86, ARM, HVX])
    return CompileTimeEvaluation(results=[
        CompileTimeResult.from_task(res)
        for res in (session or CompilerSession()).run_tasks(specs)
    ])
