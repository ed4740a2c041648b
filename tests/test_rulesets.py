"""The rule registry against the compilers and the cache keys.

Every flow must run exactly the rules its cache key hashes: a key that
hashes other rules than the engines hold would serve one configuration's
result to another.  The keys are shared by processes started under
different hash seeds, so CI also runs this module under a second
``PYTHONHASHSEED``.
"""

import itertools

import pytest

from repro import rulesets
from repro.fabric.fingerprint import (
    baseline_rules_fingerprint,
    digest,
    pipeline_rules_fingerprint,
    rulebase_fingerprint,
)
from repro.lifting import HAND_RULES, LIFT_STRATEGIES, SYNTHESIZED_RULES
from repro.pipeline import LLVMCompiler, PitchforkCompiler, RakeCompiler
from repro.targets import ALL_TARGETS

TARGETS = list(ALL_TARGETS.values())


def _same(held, listed):
    """The engine holds exactly the listed rule objects, in order."""
    return [id(r) for r in held] == [id(r) for r in listed]


@pytest.mark.parametrize(
    "target,use_synthesized,leave_one_out,strategy",
    list(itertools.product(TARGETS, (True, False), (False, True),
                           LIFT_STRATEGIES)),
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_pitchfork_engines_hold_the_keyed_rules(
    target, use_synthesized, leave_one_out, strategy
):
    exclude = frozenset({"synth:add"} if leave_one_out else ())
    compiler = PitchforkCompiler(
        target, use_synthesized, exclude, lift_strategy=strategy
    )
    lift = compiler.lifter.engine.rules
    lower = compiler.lowerer.engine.rules
    flow = rulesets.pitchfork(target, use_synthesized, exclude)
    assert _same(lift, flow.lift) and _same(lower, flow.lower)
    assert pipeline_rules_fingerprint(
        target.name, use_synthesized, tuple(sorted(exclude)), strategy
    ) == digest(
        "pipeline", target.name, str(use_synthesized),
        repr(sorted(exclude)), strategy, rulebase_fingerprint(lift + lower),
    )


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_llvm_engines_hold_the_keyed_rules(target):
    (select, _backend) = LLVMCompiler(target).passes.passes
    plain, q31 = select.plain, select.q31
    assert plain.q31_lifter is None
    assert _same(plain.lowerer.engine.rules, rulesets.llvm(target).lower)
    flow = rulesets.llvm(target, q31=True)
    assert _same(q31.q31_lifter.engine.rules, flow.lift)
    assert _same(q31.lowerer.engine.rules, flow.lower)
    assert baseline_rules_fingerprint.__wrapped__("llvm", target.name) == (
        digest(
            "llvm", target.name,
            rulebase_fingerprint(plain.lowerer.engine.rules),
            rulebase_fingerprint(
                q31.q31_lifter.engine.rules + q31.lowerer.engine.rules
            ),
        )
    )


@pytest.mark.parametrize(
    "target", [ALL_TARGETS["arm-neon"], ALL_TARGETS["hexagon-hvx"]],
    ids=lambda t: t.name,
)
def test_rake_engines_hold_the_keyed_rules(target):
    (_canon, lift_pass, search) = RakeCompiler(target).passes.passes
    flow = rulesets.rake(target)
    lift = lift_pass.lifter.engine.rules
    lower = search.lowerer.engine.rules
    assert _same(lift, flow.lift) and _same(lower, flow.lower)
    assert _same(search.move_rules, flow.moves + flow.lower)
    assert baseline_rules_fingerprint.__wrapped__("rake", target.name) == (
        digest(
            "rake", target.name,
            rulebase_fingerprint(lift + lower + flow.moves),
        )
    )


class TestRegistry:
    def test_shipped_sets_in_display_order(self):
        sets = rulesets.rule_sets()
        assert [rs.name for rs in sets] == [
            "lifting-hand", "lifting-synth", *ALL_TARGETS,
        ]
        assert [rs.label for rs in sets[:3]] == [
            "lifting (hand)", "lifting (synthesized)", "lowering (x86-avx2)",
        ]
        assert [rs.phase for rs in sets] == ["lift"] * 2 + ["lower"] * 6
        assert _same(sets[0].rules, HAND_RULES)
        assert _same(sets[1].rules, SYNTHESIZED_RULES)

    def test_unknown_set_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="lifting-hand"):
            rulesets.rule_set("bogus")

    def test_hand_only_and_leave_one_out(self):
        arm = ALL_TARGETS["arm-neon"]
        hand = rulesets.pitchfork(arm, use_synthesized=False)
        assert _same(hand.lift, HAND_RULES)
        assert not any(r.is_synthesized for r in hand.lower)
        # A rule goes only when every one of its sources is excluded.
        full = rulesets.pitchfork(arm)
        loo = rulesets.pitchfork(arm, exclude_sources={"synth:add"})
        kept = {id(r) for r in loo.lift + loo.lower}
        dropped = [r for r in full.lift + full.lower if id(r) not in kept]
        assert len(dropped) == 2
        assert all(r.sources == {"synth:add"} for r in dropped)
        assert any("synth:add" in r.sources for r in loo.lift + loo.lower)

    def test_llvm_patterns_are_built_once(self):
        hvx = ALL_TARGETS["hexagon-hvx"]
        first, again = rulesets.llvm(hvx, q31=True), rulesets.llvm(hvx)
        assert _same(first.lower[:-1], again.lower)
        assert _same(first.lift, HAND_RULES) and again.lift == ()
