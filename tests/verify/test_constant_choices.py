"""What a constant choice costs the verifier.

A choice's predicate runs once, at the full input range, and again at
the restricted hints only when the first call made a bounds query: the
two hint levels' contexts differ in nothing else, so a predicate that
answers no without asking answers no at both.  A choice's match builds
its environment (and its ``Const`` nodes) only when something reads
``m.env``, and checking a choice reads ``m.consts``, so a predicate that
reads only ``m.consts`` and ``m.tenv`` costs no ``Const`` node at all.
Neither saving may move a report.
"""

import json
from pathlib import Path
from typing import NamedTuple

import pytest

import repro.verify.rule_verifier as rule_verifier
from repro.analysis import BoundsAnalyzer
from repro.ir import expr as E
from repro.ir.types import U8
from repro.lifting import HAND_RULES
from repro.trs.pattern import ConstWild, PConst, TVar, Wild
from repro.trs.rule import Rule
from repro.verify import verify_rule

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_reports.json").read_text()
)
BUDGET = {"max_type_combos": 6, "max_const_samples": 4, "max_points": 400}
HAND = {r.name: r for r in HAND_RULES}


class Call(NamedTuple):
    """One predicate call: the choice, the context, the answer, and how
    many ``Const`` nodes the verifier built during the call."""

    choice: tuple
    ctx: object
    answer: bool
    built: int


def spy(monkeypatch, base, seed=1):
    """Verify ``base`` with its predicate wrapped; return the report,
    the number of constant choices enumerated, each predicate
    :class:`Call`, and the value of every ``Const`` node the verifier
    built."""
    built = []
    real_const = rule_verifier.Const

    def const(t, v):
        built.append(v)
        return real_const(t, v)

    choices = []
    real_enumerate = rule_verifier._enumerate_const_choices

    def enumerate_choices(*args):
        out = real_enumerate(*args)
        choices.extend(out)
        return out

    calls = []

    def predicate(m, ctx):
        before = len(built)
        answer = base.predicate(m, ctx)
        choice = (tuple(sorted(m.tenv.items())),
                  tuple(sorted(m.consts.items())))
        calls.append(Call(choice, ctx, answer, len(built) - before))
        return answer

    monkeypatch.setattr(rule_verifier, "Const", const)
    monkeypatch.setattr(rule_verifier, "_enumerate_const_choices",
                        enumerate_choices)
    rule = Rule(base.name, base.lhs, base.rhs, predicate=predicate)
    report = verify_rule(rule, seed=seed, **BUDGET)
    return report, len(choices), calls, built


def as_json(report):
    return json.loads(json.dumps(report.to_dict()))


def assert_second_level_passes(calls, checked):
    """Each of the ``checked`` passing calls is its choice's second,
    at the other hint level, after a no at the full range."""
    passed = [i for i, call in enumerate(calls) if call.answer]
    assert len(passed) == checked
    for i in passed:
        first, second = calls[i - 1], calls[i]
        assert first.choice == second.choice and not first.answer
        assert first.ctx is not second.ctx


class TestOnePredicateCall:
    def test_clamp_predicate_runs_once_per_constant_choice(self,
                                                           monkeypatch):
        # _clamp_bounds reads only m.consts and m.tenv: the second hint
        # level could only repeat its answer (5,182 calls if it ran)
        report, choices, calls, _ = spy(
            monkeypatch, HAND["lift-sat-cast-minmax"])
        assert as_json(report) == GOLDEN["lift-sat-cast-minmax|1"]
        assert choices == len(calls) == 2593
        assert len({call.choice for call in calls}) == 2593

    def test_rejected_choices_build_no_const_nodes(self, monkeypatch):
        report, _, calls, built = spy(
            monkeypatch, HAND["lift-sat-cast-minmax"])
        assert as_json(report) == GOLDEN["lift-sat-cast-minmax|1"]
        assert report.checked_points
        assert not any(call.built for call in calls)
        # a checked choice's held values come from m.consts, so the
        # checked choices build none either
        assert not built

    def test_bounds_query_asks_the_second_level(self, monkeypatch):
        # _rounding_shift_pred rejects on its constants first; the 17
        # choices that pass them make a bounds query the full range
        # cannot prove, and pass at the restricted hints
        report, choices, calls, _ = spy(monkeypatch,
                                        HAND["lift-rounding-shr"])
        assert as_json(report) == GOLDEN["lift-rounding-shr|1"]
        assert len(calls) == 2610 == choices + report.checked_points
        assert_second_level_passes(calls, report.checked_points)
        assert report.checked_points == 17


def halving_rule(fits):
    """``(x + x) >> c0 -> x >> (c0 - 1)``, sound when ``x + x`` cannot
    overflow: ``fits(x, T, ctx)`` must prove ``x`` within half of
    ``T``'s range, which only the restricted hints allow."""
    T = TVar("T", max_bits=32)
    x, c0 = Wild("x", T), ConstWild("c0", T)

    def predicate(m, ctx):
        t = m.tenv["T"]
        return 0 < m.consts["c0"] < t.bits and fits(m.env["x"], t, ctx)

    return Rule("halve-sum", E.Shr(E.Add(x, x), c0),
                E.Shr(x, PConst(TVar("T"), lambda c: c["c0"] - 1)),
                predicate=predicate)


def fits_by_queries(x, t, ctx):
    return (ctx.upper_bounded(x, t.max_value // 2)
            and ctx.lower_bounded(x, t.min_value // 2))


def fits_by_analyzer(x, t, ctx):
    # reaches past the RuleContext API (lint L108), as a careless
    # predicate might
    b = ctx.analyzer.bounds(x)
    return t.min_value // 2 <= b.lo and b.hi <= t.max_value // 2


# The report of the verifier that called the predicate at both hint
# levels for every constant choice, at seeds 0 and 1 and either
# predicate.  Had the second level been skipped, the report would read
# "predicate never satisfied by sampled constants".
HALVING_REPORT = {"rule_name": "halve-sum", "ok": True, "checked_combos": 6,
                  "checked_points": 28, "counterexample": None, "notes": []}


class TestSecondHintLevel:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fits", [fits_by_queries, fits_by_analyzer],
                             ids=["queries", "analyzer"])
    def test_report_is_unchanged(self, fits, seed):
        report = verify_rule(halving_rule(fits), seed=seed, **BUDGET)
        assert as_json(report) == HALVING_REPORT

    @pytest.mark.parametrize("fits", [fits_by_queries, fits_by_analyzer],
                             ids=["queries", "analyzer"])
    def test_only_a_context_user_reaches_it(self, monkeypatch, fits):
        report, choices, calls, _ = spy(monkeypatch, halving_rule(fits))
        assert as_json(report) == HALVING_REPORT
        assert_second_level_passes(calls, report.checked_points)
        # a choice rejected on c0 alone runs its predicate once
        assert len(calls) == choices + report.checked_points

    def test_every_use_of_the_context_counts(self):
        ctx = rule_verifier._CountingContext(BoundsAnalyzer())
        x = E.Var(U8, "x")
        uses = (lambda: ctx.upper_bounded(x, 255),
                lambda: ctx.lower_bounded(x, 0),
                lambda: ctx.nonzero(x),
                lambda: ctx.analyzer)
        for use in uses:
            before = ctx.uses
            use()
            assert ctx.uses > before


class TestLazyEnv:
    def test_predicate_reading_env_sees_variables_then_constants(self):
        T = TVar("T", max_bits=32)
        seen = []

        def predicate(m, ctx):
            seen.append((dict(m.env), m.tenv["T"], dict(m.consts)))
            return m.consts["c1"] == 1

        side = E.Add(E.Add(Wild("y", T), ConstWild("c1", T)),
                     E.Add(Wild("x", T), ConstWild("c0", T)))
        assert verify_rule(Rule("same", side, side, predicate=predicate),
                           **BUDGET).ok
        assert seen
        for env, t, consts in seen:
            # wildcards as the left-hand side names them, then constants
            # by name
            assert list(env) == ["y", "x", "c0", "c1"]
            assert env["x"] == E.Var(t, "x") and env["y"] == E.Var(t, "y")
            for name in ("c0", "c1"):
                assert env[name] == E.Const(t, consts[name])
