"""Tests for the corpus extractor, the synthesis driver, and §4.2
lowering-rule generation against the Rake oracle."""

import dataclasses

import pytest

from repro import fpir as F
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import U8, U16
from repro.synthesis import (
    extract_corpus,
    generate_lowering_pairs,
    synthesize_lifting_rules,
)
from repro.synthesis.corpus import canonicalize_variables
from repro.targets import ARM, HVX, X86
from repro.workloads import by_name

a = h.var("a", U8)
b = h.var("b", U8)


class TestCorpus:
    def test_canonicalize_variables(self):
        e1 = h.u16(a) + h.u16(b)
        e2 = h.u16(h.var("p", U8)) + h.u16(h.var("q", U8))
        assert canonicalize_variables(e1) == canonicalize_variables(e2)

    def test_corpus_dedup_up_to_renaming(self):
        corpus = extract_corpus([by_name("sobel3x3")], max_size=6)
        exprs = [c.expr for c in corpus]
        assert len(exprs) == len(set(exprs))
        # the Sobel half-kernel pieces appear once despite 4 occurrences
        assert len(exprs) < 12

    def test_corpus_size_cap(self):
        corpus = extract_corpus([by_name("softmax")], max_size=5)
        for entry in corpus:
            assert 3 <= entry.expr.size <= 5

    def test_provenance_recorded(self):
        corpus = extract_corpus([by_name("add")], max_size=8)
        assert corpus and all(c.source == "add" for c in corpus)


class TestDriver:
    def test_driver_produces_verified_rules(self):
        run = synthesize_lifting_rules(
            workloads=[by_name("average_pool"), by_name("camera_pipe")],
            max_lhs_size=6,
            max_candidates=30,
        )
        assert run.corpus_size > 0
        assert len(run.pairs) >= 1
        # every returned rule carries synth provenance
        for rule in run.rules:
            assert rule.is_synthesized

    def test_registry_workloads_search_like_ad_hoc_ones(self):
        # Registry workloads search as fabric tasks (inline without a
        # pool); a copy of one is ad hoc, so its searches run in the
        # driver.  Both find the same pairs and rules.
        wls = [by_name("add")]
        tasks = synthesize_lifting_rules(workloads=wls, max_candidates=5)
        inline = synthesize_lifting_rules(
            workloads=[dataclasses.replace(w) for w in wls],
            max_candidates=5,
        )
        assert tasks.summary() == inline.summary()
        assert ([(p.lhs, p.rhs, p.candidates_explored) for p in tasks.pairs]
                == [(p.lhs, p.rhs, p.candidates_explored)
                    for p in inline.pairs])
        assert ([(r.name, str(r.lhs), str(r.rhs)) for r in tasks.rules]
                == [(r.name, str(r.lhs), str(r.rhs)) for r in inline.rules])

    def test_driver_rules_apply_to_their_source(self):
        run = synthesize_lifting_rules(
            workloads=[by_name("add")], max_lhs_size=5, max_candidates=20
        )
        # at least one rule should fire somewhere on the add benchmark
        wl = by_name("add")
        from repro.lifting.canonicalize import canonicalize

        expr = canonicalize(wl.expr)
        fired = False
        for rule in run.rules:
            for node in expr.walk():
                if rule.apply(node) is not None:
                    fired = True
        assert not run.rules or fired


class TestLoweringGeneration:
    def test_sobel_arm_discovers_umlal_pattern(self):
        """§4.2's example: x_u16 + widening_shl(y_u8, 1) -> umlal."""
        pairs = generate_lowering_pairs(
            by_name("sobel3x3"), ARM, max_candidates=24
        )
        assert pairs, "oracle found no improvements on sobel/ARM"
        best = pairs[0]
        assert any(
            isinstance(n, F.WideningShl) for n in best.lhs.walk()
        )
        # the oracle's program must use the fused multiply-accumulate
        from repro.machine.program import linearize

        mnemonics = [l.mnemonic for l in linearize(best.rhs)]
        assert "umlal" in mnemonics
        assert best.improvement > 1.0

    def test_no_x86_generation(self):
        with pytest.raises(ValueError):
            generate_lowering_pairs(by_name("sobel3x3"), X86)

    def test_hvx_finds_fused_mac(self):
        pairs = generate_lowering_pairs(
            by_name("sobel3x3"), HVX, max_candidates=24
        )
        assert pairs
        assert all(p.improvement > 1.0 for p in pairs)
        assert all(p.target == "hexagon-hvx" for p in pairs)


class TestFullLoweringLoop:
    """§4.2 + §4.3 end to end: mined pairs become usable TRS rules."""

    def test_learned_rule_recovers_fusion_in_hand_only_lowerer(self):
        from repro import rulesets
        from repro.analysis import BoundsAnalyzer
        from repro.lifting import Lifter
        from repro.machine.lowerer import Lowerer
        from repro.machine.simulator import cost_cycles
        from repro.synthesis import synthesize_lowering_rules

        wl = by_name("sobel3x3")
        learned = synthesize_lowering_rules(wl, ARM, max_candidates=24)
        assert learned, "no lowering rules learned from sobel/ARM"

        hand = rulesets.pitchfork(ARM, use_synthesized=False)
        lifted = Lifter(hand.lift).lift(
            wl.expr, BoundsAnalyzer(wl.var_bounds)
        ).expr
        base = Lowerer(ARM, hand.lower)
        boosted = Lowerer(ARM, (*learned, *hand.lower))
        base_cost = cost_cycles(
            base.lower(lifted, BoundsAnalyzer(wl.var_bounds)), ARM
        ).total
        boosted_cost = cost_cycles(
            boosted.lower(lifted, BoundsAnalyzer(wl.var_bounds)), ARM
        ).total
        assert boosted_cost < base_cost

    def test_learned_rules_are_verified_and_tagged(self):
        from repro.synthesis import synthesize_lowering_rules
        from repro.verify import verify_rule

        rules = synthesize_lowering_rules(
            by_name("sobel3x3"), ARM, max_candidates=16
        )
        for rule in rules:
            assert rule.source == "synth:sobel3x3"
            assert verify_rule(rule, max_type_combos=4).ok

    def test_learned_rule_lowered_programs_execute(self):
        from repro import rulesets
        from repro.analysis import BoundsAnalyzer
        from repro.interp import evaluate
        from repro.lifting import Lifter
        from repro.machine.lowerer import Lowerer
        from repro.synthesis import synthesize_lowering_rules

        wl = by_name("sobel3x3")
        learned = synthesize_lowering_rules(wl, ARM, max_candidates=16)
        hand = rulesets.pitchfork(ARM, use_synthesized=False)
        lifted = Lifter(hand.lift).lift(
            wl.expr, BoundsAnalyzer(wl.var_bounds)
        ).expr
        prog = Lowerer(ARM, (*learned, *hand.lower)).lower(
            lifted, BoundsAnalyzer(wl.var_bounds)
        )
        env = wl.random_env(lanes=16, seed=55)
        assert evaluate(prog, env) == evaluate(wl.expr, env)
