"""Combined experiment report: every figure's data in one document.

``python -m repro evaluate all --write report.md`` regenerates the
measured side of EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from typing import Optional

from ..fabric.jobs import CompileTimeParams
from ..session import CompilerSession
from .ablation import run_ablation
from .codegen_compare import run_codegen_comparison
from .compile_time import run_compile_time_evaluation
from .runtime import run_runtime_evaluation

__all__ = ["build_full_report"]

_PAPER_NOTES = """
Paper reference points:
  Figure 5: geomeans 1.31x (x86), 1.82x (ARM), 2.44x (HVX);
            maxima 3.40x / 8.33x / 5.76x;
            PITCHFORK within 2% of Rake on ARM, 13% on HVX.
  Figure 6: compile times comparable to or better than LLVM; softmax largest.
  Figure 7: geomeans 1.09x (ARM) / 1.14x (HVX); max 4.99x (average_pool, HVX).
"""


def build_full_report(
    with_rake: bool = True,
    compile_repeats: int = CompileTimeParams.repeats,
    lift_strategy: str = CompileTimeParams.lift_strategy,
    session: Optional[CompilerSession] = None,
) -> str:
    """Run every harness and render a markdown report.

    The Figure 5/6/7 sweeps all run in the one ``session``: its cache,
    its metrics and its worker pool, shared by the three; the rendered
    numbers are identical either way (Figure 6 wall times are measured
    fresh every run, never cached).  ``lift_strategy`` reaches Figures
    5 and 6, as it does from ``evaluate fig5`` and ``evaluate fig6``.
    """
    t0 = time.time()
    sections = []

    sections.append("# PITCHFORK reproduction — measured results\n")
    sections.append(
        "Every number below is backed by a lane-exact execution check of "
        "the compiled program against the reference interpreter.\n"
    )

    sections.append("## Figure 3 — Sobel sub-expression codegen\n")
    sections.append("```\n" + run_codegen_comparison() + "\n```\n")

    sections.append("## Figure 5 — runtime speedup over LLVM\n")
    ev5 = run_runtime_evaluation(
        with_rake=with_rake, lift_strategy=lift_strategy, session=session
    )
    assert all(r.verified for r in ev5.results)
    sections.append("```\n" + ev5.format_table() + "\n```\n")

    sections.append("## Figure 6 — compile-time speedup over LLVM\n")
    ev6 = run_compile_time_evaluation(
        repeats=compile_repeats, lift_strategy=lift_strategy,
        session=session,
    )
    sections.append("```\n" + ev6.format_table() + "\n```\n")

    sections.append("## Figure 7 — synthesized-rule ablation\n")
    ev7 = run_ablation(session=session)
    assert all(r.verified for r in ev7.results)
    sections.append("```\n" + ev7.format_table() + "\n```\n")

    sections.append("```" + _PAPER_NOTES + "```\n")
    sections.append(
        f"_Report generated in {time.time() - t0:.1f} s by "
        f"`python -m repro evaluate all`._\n"
    )
    return "\n".join(sections)
