"""The e-graph lift hands its scorer's lowering of the greedy anchor on.

The cycle scorer lowers the greedy anchor first, while its memos are
still empty, so that lowering is the one a fresh ``LowerPass`` lowering
gives, tree and counts alike.  When the lift keeps the anchor,
``LowerPass`` reuses it instead of lowering again, unless an observation
is attached: provenance needs the instrumented lowering.  So the
observed and unobserved compiles must agree on everything but
provenance; ``LowerPass`` must lower only where the lift chose another
term; and the scorer must not outlive its compile.
"""

import gc
import weakref

import pytest

from repro.machine.lowerer import Lowerer
from repro.observe import MetricsRegistry, Observation
from repro.pipeline import PitchforkCompiler, pitchfork_compile
from repro.targets import ALL_TARGETS, ARM, PAPER_TARGETS
from repro.workloads import WORKLOADS, by_name


def _counts(prog):
    return [
        (p.name, p.rewrites, p.nodes_in, p.nodes_out)
        for p in prog.stats.passes
    ]


@pytest.mark.parametrize("target_name", sorted(ALL_TARGETS))
def test_observed_compile_matches_reused_lowering(target_name):
    target = ALL_TARGETS[target_name]
    for name in WORKLOADS:
        wl = by_name(name)
        metrics = MetricsRegistry()
        plain, observed = [
            pitchfork_compile(
                wl.expr, target, var_bounds=wl.var_bounds,
                lift_strategy="egraph", trace=trace,
            )
            for trace in (None, Observation.quiet(metrics=metrics))
        ]
        assert plain.assembly() == observed.assembly(), name
        assert plain.cost().total == observed.cost().total, name
        assert plain.lift_rules_used == observed.lift_rules_used, name
        assert _counts(plain) == _counts(observed), name
        # the observed compile ran the instrumented lowering
        assert [
            h.count for h in metrics.histograms()
            if h.name == "lowering_iterations"
        ] == [1], name


def test_lower_pass_lowers_only_when_the_lift_left_greedy(monkeypatch):
    # LowerPass lowers with fresh memos (memos=None); the scorer never
    # does.
    fresh = [0]
    real = Lowerer.lower_with_stats

    def lower_with_stats(self, expr, analyzer=None, obs=None, memos=None):
        if memos is None:
            fresh[0] += 1
        return real(self, expr, analyzer, obs=obs, memos=memos)

    monkeypatch.setattr(Lowerer, "lower_with_stats", lower_with_stats)
    diverged = []
    for target in PAPER_TARGETS:
        for name in WORKLOADS:
            wl = by_name(name)
            greedy = pitchfork_compile(
                wl.expr, target, var_bounds=wl.var_bounds
            )
            before = fresh[0]
            prog = pitchfork_compile(
                wl.expr, target, var_bounds=wl.var_bounds,
                lift_strategy="egraph",
            )
            left_greedy = prog.lifted is not greedy.lifted
            assert fresh[0] - before == left_greedy, (name, target.name)
            if left_greedy:
                diverged.append((name, target.name))
    # 6 cells with fewer cycles, and softmax on all three targets at
    # equal cycles and lower agnostic cost
    assert len(diverged) == 9, diverged


def test_scorer_dies_by_reference_counting():
    compiler = PitchforkCompiler(ARM, lift_strategy="egraph")
    lift = compiler.passes.passes[1]
    factory = lift.scorer
    refs = []

    def scorer(var_bounds):
        made = factory(var_bounds)
        refs.append(weakref.ref(made))
        return made

    lift.scorer = scorer
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in WORKLOADS:
            wl = by_name(name)
            prog = compiler.compile(wl.expr, wl.var_bounds)
            assert prog.lowered is not None
            assert refs[-1]() is None, (
                f"{name}: the scorer outlived its compile"
            )
    finally:
        if was_enabled:
            gc.enable()
    assert len(refs) == len(WORKLOADS)
