"""Lift-strategy acceptance: e-graph vs greedy over the full 48-cell grid.

Three enforced contracts:

* **never worse, sometimes better** — on every (workload, target) cell the
  e-graph strategy's modelled cycles are <= greedy's (it is anchored to
  the greedy result by construction), and on at least one cell it is
  strictly better (otherwise the strategy is dead weight);
* **semantics preserved** — every cell where the strategies diverge is
  executed against the interpreter on random inputs;
* **cycles ratchet** — neither strategy may regress above the checked-in
  ``benchmarks/cycles_baseline.json`` snapshot;

plus the match-index acceptance criterion: over a coverage sweep the
discrimination tree must avoid at least 5x the match attempts it admits
(hit+miss >= 5*hit, i.e. the naive scan would try >= 5x more rules).
"""

import json
from pathlib import Path

import pytest

from repro.interp import compile_expr
from repro.pipeline import pitchfork_compile
from repro.targets import PAPER_TARGETS
from repro.workloads import WORKLOADS, by_name

BASELINE = json.loads(
    (
        Path(__file__).parent / ".." / ".." / "benchmarks"
        / "cycles_baseline.json"
    ).read_text()
)["cells"]
CELLS = [
    (name, target) for name in WORKLOADS for target in PAPER_TARGETS
]


@pytest.fixture(scope="module")
def grid():
    """Both strategies compiled over every cell, once per module."""
    out = {}
    for name, target in CELLS:
        wl = by_name(name)
        out[(name, target.name)] = (
            pitchfork_compile(wl.expr, target, var_bounds=wl.var_bounds),
            pitchfork_compile(
                wl.expr,
                target,
                var_bounds=wl.var_bounds,
                lift_strategy="egraph",
            ),
        )
    return out


def test_baseline_covers_full_grid():
    assert len(BASELINE) == len(WORKLOADS) * len(PAPER_TARGETS) == 48


def test_egraph_never_worse_and_strictly_better_somewhere(grid):
    wins = []
    for (name, tname), (greedy, egraph) in grid.items():
        gc, ec = greedy.cost().total, egraph.cost().total
        assert ec <= gc, (
            f"egraph worse than greedy on {name}|{tname}: {ec} > {gc}"
        )
        if ec < gc:
            wins.append((name, tname, gc, ec))
    assert wins, "egraph strategy never beat greedy on any cell"


def test_divergent_cells_preserve_semantics(grid):
    for (name, tname), (greedy, egraph) in grid.items():
        if greedy.lowered is egraph.lowered:
            continue
        wl = by_name(name)
        src_fn = compile_expr(wl.expr)
        for round_idx in range(3):
            env = wl.random_env(lanes=16, seed=23 + round_idx)
            ref = src_fn(env, 16)
            assert egraph.run(env, 16) == ref, f"{name}|{tname}"
            assert greedy.run(env, 16) == ref, f"{name}|{tname}"


@pytest.mark.parametrize("strategy", ["greedy", "egraph"])
def test_cycles_ratchet(grid, strategy):
    regressions = []
    for (name, tname), progs in grid.items():
        prog = progs[0] if strategy == "greedy" else progs[1]
        base = BASELINE[f"{name}|{tname}"][strategy]
        got = prog.cost().total
        if got > base + 1e-9:
            regressions.append(f"{name}|{tname}: {got} > {base}")
    assert not regressions, (
        f"{strategy} cycles regressed vs benchmarks/cycles_baseline.json:"
        f" {regressions}"
    )


def test_match_index_avoids_5x_attempts():
    """Acceptance: over a suite coverage sweep, the rules the index
    prunes (misses) plus the rules it admits (hits) — i.e. what the naive
    scan would have attempted — is at least 5x the admitted count."""
    from repro.evaluation.coverage import run_coverage
    from repro.observe import MetricsRegistry
    from repro.session import CompilerSession

    metrics = MetricsRegistry()
    with CompilerSession(metrics=metrics) as session:
        report = run_coverage(session=session)
    assert not report.failures
    hits = misses = 0
    for c in metrics.counters("match_index"):
        labels = dict(c.labels)
        if labels["outcome"] == "hit":
            hits += c.value
        else:
            misses += c.value
    assert hits > 0 and misses > 0
    assert hits + misses >= 5 * hits, (
        f"index admitted too much: {hits} hits of {hits + misses} "
        f"attempts ({(hits + misses) / hits:.1f}x reduction)"
    )
