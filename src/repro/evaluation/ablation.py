"""Figure 7: impact of the synthesized rules (hand-written-only ablation).

For ARM and HVX, compile each benchmark twice — once with the full rule
set, once with only the hand-written rules — and report the speedup the
synthesized rules contribute.  Paper: geomean 1.09x on ARM and 1.14x on
HVX, up to 4.99x for average_pool on HVX (whose fused rounding-narrow and
MAC rules are all synthesized), with a small regression possible where a
synthesized rewrite interacts badly with HVX swizzles (gaussian7x7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fabric.jobs import cell_specs
from ..interp import evaluate
from ..pipeline import pitchfork_compile
from ..session import CompilerSession
from ..targets import ARM, HVX, Target
from ..workloads import Workload

__all__ = ["AblationResult", "AblationEvaluation", "run_ablation"]


@dataclass
class AblationResult:
    workload: str
    target: str
    hand_only_cycles: float
    full_cycles: float
    verified: bool = False

    @property
    def speedup(self) -> float:
        """Speedup of full rules over hand-written rules only."""
        return self.hand_only_cycles / self.full_cycles


@dataclass
class AblationEvaluation:
    results: List[AblationResult] = field(default_factory=list)

    def geomean(self, target_name: str) -> float:
        vals = [r.speedup for r in self.results if r.target == target_name]
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    def max_result(self, target_name: str) -> AblationResult:
        return max(
            (r for r in self.results if r.target == target_name),
            key=lambda r: r.speedup,
        )

    def format_table(self) -> str:
        by_wl: Dict[str, Dict[str, AblationResult]] = {}
        for r in self.results:
            by_wl.setdefault(r.workload, {})[r.target] = r
        lines = [f"{'benchmark':<16} {'ARM':>6} {'HVX':>6}"]
        for wl, per in by_wl.items():
            row = [f"{wl:<16}"]
            for t in ("arm-neon", "hexagon-hvx"):
                r = per.get(t)
                row.append(f"{r.speedup:>6.2f}" if r else f"{'-':>6}")
            lines.append(" ".join(row))
        lines.append("-" * 32)
        for t in ("arm-neon", "hexagon-hvx"):
            m = self.max_result(t)
            lines.append(
                f"geomean {t}: {self.geomean(t):.2f}x "
                f"(max {m.speedup:.2f}x on {m.workload})"
            )
        return "\n".join(lines)


def ablate_one(
    wl: Workload, target: Target, verify_lanes: int = 16, trace=None
) -> AblationResult:
    """Compile one benchmark with full vs hand-only rules and verify.

    ``trace`` (an :class:`~repro.observe.Observation`) opts both
    compiles into observability so fabric sweeps report uniformly.
    """
    full = pitchfork_compile(
        wl.expr, target, var_bounds=wl.var_bounds, trace=trace
    )
    hand = pitchfork_compile(
        wl.expr, target, var_bounds=wl.var_bounds, use_synthesized=False,
        trace=trace,
    )
    env = wl.random_env(lanes=verify_lanes, seed=17)
    ref = evaluate(wl.expr, env)
    verified = full.run(env) == ref and hand.run(env) == ref
    return AblationResult(
        workload=wl.name,
        target=target.name,
        hand_only_cycles=hand.cost().total,
        full_cycles=full.cost().total,
        verified=verified,
    )


def run_ablation(
    workload_names: Optional[List[str]] = None,
    targets: Optional[List[Target]] = None,
    session: Optional[CompilerSession] = None,
) -> AblationEvaluation:
    """Run the Figure 7 ablation over the benchmark suite.

    One fabric task per (workload, target) cell, run in the
    ``session``'s context; modelled cycles are deterministic, so cells
    cache against the workload expression plus both rulebase
    fingerprints (full and hand-only).
    """
    specs = cell_specs("ablation", None, workload_names,
                       targets if targets is not None else [ARM, HVX])
    ev = AblationEvaluation()
    for res in (session or CompilerSession()).run_tasks(specs):
        if not res.ok:
            raise RuntimeError(
                f"ablation cell {res.spec.key} failed: {res.error}"
            )
        v = res.value
        ev.results.append(
            AblationResult(
                workload=res.spec.key[0],
                target=res.spec.key[1],
                hand_only_cycles=v["hand_only_cycles"],
                full_cycles=v["full_cycles"],
                verified=v["verified"],
            )
        )
    return ev
