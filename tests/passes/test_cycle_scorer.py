"""The e-graph lift's cycle scorer: one lowering context per compile.

The scorer lowers every extraction candidate of one lift through one
bounds analyzer and one set of lowering memos.  Each lowering step is
pure per node, so a candidate must lower to the very tree, and score
the cycles, a fresh lowering gives; the context must die with its
compile; and only the failures lowering can raise may drop a candidate.
"""

import gc
import weakref

import pytest

from repro import rulesets
from repro.analysis import BoundsAnalyzer
from repro.machine.lowerer import Lowerer, LoweringError
from repro.machine.simulator import cost_cycles
from repro.pipeline import PitchforkCompiler, pitchfork_compile
from repro.targets import ARM, PAPER_TARGETS, UnsupportedType
from repro.trs.rewriter import RewriteError
from repro.workloads import WORKLOADS, by_name

LOWERING_FAILURES = (LoweringError, RewriteError, UnsupportedType)


def _spy_candidates(monkeypatch):
    """Record each lowering made through shared memos (the scorer's):
    ``(term, lowered tree or exception type, analyzer id, weakref)``."""
    seen = []
    real = Lowerer.lower_with_stats

    def lower_with_stats(self, expr, analyzer=None, obs=None, memos=None):
        if memos is None:
            return real(self, expr, analyzer, obs=obs)
        tag = (id(analyzer), weakref.ref(analyzer))
        try:
            lowered, stats = real(self, expr, analyzer, obs=obs, memos=memos)
        except LOWERING_FAILURES as exc:
            seen.append((expr, type(exc)) + tag)
            raise
        seen.append((expr, lowered) + tag)
        return lowered, stats

    monkeypatch.setattr(Lowerer, "lower_with_stats", lower_with_stats)
    return seen


def _fail_candidates(monkeypatch, exc_type):
    """Make every shared-memo lowering (the scorer's) raise ``exc_type``."""
    real = Lowerer.lower_with_stats

    def lower_with_stats(self, expr, analyzer=None, obs=None, memos=None):
        if memos is not None:
            raise exc_type("candidate failed to lower")
        return real(self, expr, analyzer, obs=obs)

    monkeypatch.setattr(Lowerer, "lower_with_stats", lower_with_stats)


def _fresh(lowerer, term, var_bounds):
    try:
        return lowerer.lower(term, BoundsAnalyzer(var_bounds))
    except LOWERING_FAILURES as exc:
        return type(exc)


@pytest.mark.parametrize("target", PAPER_TARGETS, ids=lambda t: t.name)
def test_candidates_lower_as_if_fresh_and_context_dies(monkeypatch, target):
    seen = _spy_candidates(monkeypatch)
    fresh = Lowerer(target, rulesets.pitchfork(target).lower)
    for name in WORKLOADS:
        wl = by_name(name)
        del seen[:]
        pitchfork_compile(
            wl.expr, target, var_bounds=wl.var_bounds, lift_strategy="egraph"
        )
        assert seen, f"{name}: the scorer lowered no candidate"
        assert len({aid for _, _, aid, _ in seen}) == 1, name
        # The rewriter's recursive pass closure holds its context in a
        # reference cycle, so the analyzer goes with the cycle collector;
        # what matters is that nothing reachable keeps it.
        gc.collect()
        assert all(ref() is None for _, _, _, ref in seen), (
            f"{name}: the scorer's analyzer outlived its compile"
        )
        for term, got, _, _ in seen:
            want = _fresh(fresh, term, wl.var_bounds)
            assert got is want, f"{name}: {term}"
            if not isinstance(got, type):
                assert (
                    cost_cycles(got, target).total
                    == cost_cycles(want, target).total
                )


@pytest.mark.parametrize("exc", LOWERING_FAILURES)
def test_lowering_failure_scores_none(monkeypatch, exc):
    wl = by_name("matmul")
    greedy = pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds)
    _fail_candidates(monkeypatch, exc)
    compiler = PitchforkCompiler(ARM, lift_strategy="egraph")
    assert compiler._cycle_scorer(wl.var_bounds)(greedy.lifted) is None
    # No candidate scores, so the lift keeps greedy's form (on matmul
    # the scored e-graph lift otherwise beats it on arm-neon).
    prog = compiler.compile(wl.expr, wl.var_bounds)
    assert prog.assembly() == greedy.assembly()


def test_other_exceptions_propagate(monkeypatch):
    _fail_candidates(monkeypatch, RuntimeError)
    wl = by_name("matmul")
    with pytest.raises(RuntimeError, match="candidate failed to lower"):
        pitchfork_compile(
            wl.expr, ARM, var_bounds=wl.var_bounds, lift_strategy="egraph"
        )
