"""Sample verification of the lowering rule sets, and the edge-constant
walk that reaches the specific-constant (Q-format) predicates.

``rules --verify`` checks every lowering set at its budgets; a
Q(bits-1) multiply's predicate wants ``c0 == bits - 1``, which the
sampled constants hold only at 16 bits, so those rules verify through
the second walk at each constant wildcard's edge value."""

import pytest

import repro.verify.rule_verifier as rule_verifier
from repro import fpir as F
from repro.fabric.jobs import VERIFY_RULESETS
from repro.ir import expr as E
from repro.rulesets import rule_set, rule_sets
from repro.trs.pattern import ConstWild, TVar, Wild
from repro.trs.rule import Rule
from repro.verify import verify_rule

#: the budgets of ``rules --verify`` (VerifyParams)
BUDGET = {"max_type_combos": 6, "max_const_samples": 4, "max_points": 400}

#: the rules whose predicate no sampled constant satisfies at seed 0
EDGE_ONLY = [
    ("x86-avx2", "x86-q31-mulr-seq"),
    ("arm-neon", "arm-sqrdmulh-32"),
    ("hexagon-hvx", "hvx-vmpy-rnd-sat-32"),
    ("riscv-rvv", "rvv-vsmul-8"),
    ("riscv-rvv", "rvv-vsmul-32"),
]


def _rule(set_name, name):
    return next(r for r in rule_set(set_name).rules if r.name == name)


def _never_satisfied(combos):
    return {
        "ok": False, "checked_combos": combos, "checked_points": 0,
        "counterexample": {
            "reason": "predicate never satisfied by sampled constants"},
        "notes": [],
    }


def test_every_rule_set_is_verified():
    assert VERIFY_RULESETS == tuple(rs.name for rs in rule_sets())
    lowering = [rs for rs in rule_sets() if rs.phase == "lower"]
    assert sum(len(rs.rules) for rs in rule_sets()) == 222
    assert sum(len(rs.rules) for rs in lowering) == 158


@pytest.mark.parametrize("set_name", [
    rs.name for rs in rule_sets() if rs.phase == "lower"
])
def test_every_lowering_rule_verifies(set_name):
    failing = [
        (r.name, report.counterexample)
        for r in rule_set(set_name).rules
        for report in [verify_rule(r, seed=0, **BUDGET)]
        if not report.ok
    ]
    assert not failing


@pytest.mark.parametrize("set_name, name", EDGE_ONLY)
def test_q_format_rules_verify_at_the_edge_constant(set_name, name,
                                                    monkeypatch):
    rule = _rule(set_name, name)
    report = verify_rule(rule, seed=0, **BUDGET)
    assert report.ok and report.checked_points > 0
    assert report.notes == ["predicate satisfied only at edge constants"]
    # without the second walk, today's report: no choice passed
    monkeypatch.setattr(rule_verifier, "_edge_consts", lambda types: [])
    assert verify_rule(rule, seed=0, **BUDGET).to_dict() == dict(
        _never_satisfied(2), rule_name=name)


def test_edge_walk_runs_only_when_nothing_passed(monkeypatch):
    walked = []
    real = rule_verifier._edge_consts
    monkeypatch.setattr(rule_verifier, "_edge_consts",
                        lambda types: walked.append(types) or real(types))
    # 15 is sampled at 16 bits, so the first walk passes
    assert verify_rule(_rule("arm-neon", "arm-sqrdmulh-16"), **BUDGET).ok
    # forced constants are never replaced
    report = verify_rule(_rule("arm-neon", "arm-sqrdmulh-32"),
                         forced_consts={"c0": 30}, **BUDGET)
    assert not report.ok
    assert walked == []


def test_never_satisfiable_predicate_keeps_its_report():
    T = TVar("T", max_bits=32)
    rule = Rule(
        "mutant-never-satisfiable-predicate",
        E.Add(Wild("x", T), ConstWild("c0", T)),
        E.Add(Wild("x", T), ConstWild("c0", T)),
        predicate=lambda m, ctx: False,
    )
    assert verify_rule(rule, seed=0, **BUDGET).to_dict() == dict(
        _never_satisfied(6), rule_name=rule.name)


def test_edge_walk_finds_a_wrong_rule():
    # a Q31 multiply that drops the rounding: only c0 = 31 reaches it
    T = TVar("T", signed=True, min_bits=32, max_bits=32)
    S = TVar("S", min_bits=32, max_bits=32)
    rule = Rule(
        "mutant-q31-without-rounding",
        F.RoundingMulShr(Wild("x", T), Wild("y", T), ConstWild("c0", S)),
        F.MulShr(Wild("x", T), Wild("y", T), ConstWild("c0", S)),
        predicate=lambda m, ctx: m.consts["c0"] == 31,
    )
    report = verify_rule(rule, seed=0, **BUDGET)
    assert not report.ok
    assert report.counterexample["consts"] == {"c0": 31}
    assert report.counterexample["lhs"] != report.counterexample["rhs"]


def test_umlal_lhs_with_umlsl_rhs_fails():
    umlal, umlsl = (_rule("arm-neon", n) for n in ("arm-umlal", "arm-umlsl"))
    mutant = Rule("mutant-umlal-as-umlsl", umlal.lhs, umlsl.rhs)
    assert verify_rule(umlal, seed=0, **BUDGET).ok
    report = verify_rule(mutant, seed=0, **BUDGET)
    assert not report.ok
    cex = report.counterexample
    assert cex["tenv"] == {"T": "u8"}
    assert cex["lhs"] != cex["rhs"]
