"""Golden verification reports: verdicts, counts and counterexamples.

``golden_reports.json`` holds :meth:`VerificationReport.to_dict` for the
64 lifting rules and three unsound rules, at two seeds and the
benchmark budgets (6 type assignments, 4 constant samples per wildcard,
400 grid points).  The counts and counterexamples depend on the order in
which the verifier draws its random samples, so any change to the
verifier's loop must keep that order to keep these reports.  Both
evaluation backends, and ``auto``'s dispatch between them on the lane
count of a call, must reproduce the same reports, at any lane budget.
"""

import json
from pathlib import Path

import pytest

import repro.verify.rule_verifier as rule_verifier
from repro import fpir as F
from repro.ir import expr as E
from repro.lifting import HAND_RULES, SYNTHESIZED_RULES
from repro.trs.pattern import ConstWild, PConst, TVar, TWiden, Wild
from repro.trs.rule import Rule
from repro.verify import verify_rule

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_reports.json").read_text()
)
SEEDS = (0, 1)
BUDGETS = {"max_type_combos": 6, "max_const_samples": 4, "max_points": 400}


def unsound_rules():
    """The unsound rules of ``test_rule_verifier.py``: a wrong semantics,
    a missing constant-range predicate and a predicate never satisfied."""
    T = TVar("T", max_bits=32)
    return [
        Rule("bad",
             E.Add(Wild("x", T), Wild("y", T)),
             F.SaturatingAdd(Wild("x", T), Wild("y", T))),
        Rule("no-range-check",
             E.Shl(E.Cast(TWiden(T), Wild("x", T)),
                   ConstWild("c0", TWiden(T))),
             F.WideningShl(Wild("x", T),
                           PConst(TVar("T"), lambda c: c["c0"]))),
        Rule("dead",
             E.Add(Wild("x", T), ConstWild("c0", T)),
             E.Add(Wild("x", T), ConstWild("c0", T)),
             predicate=lambda m, ctx: False),
    ]


RULES = {r.name: r for r in HAND_RULES + SYNTHESIZED_RULES + unsound_rules()}


def golden_key(name: str, seed: int) -> str:
    return f"{name}|{seed}"


def test_golden_covers_every_rule_and_seed():
    assert len(RULES) == 67
    assert set(GOLDEN) == {golden_key(n, s) for n in RULES for s in SEEDS}


def report(name, seed, backend):
    got = verify_rule(RULES[name], seed=seed, backend=backend, **BUDGETS)
    # through JSON, so tuples and int keys compare as the fixture has them
    return json.loads(json.dumps(got.to_dict()))


@pytest.mark.parametrize("backend", ["closure", "numpy", "auto"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(RULES))
def test_report_matches_golden(name, seed, backend):
    assert report(name, seed, backend) == GOLDEN[golden_key(name, seed)]


# A budget of 1 evaluates each check alone; at 500 lanes a chunk holds
# one to dozens of checks, so failures land in a non-first check of a
# chunk and chunk boundaries fall inside a type assignment.
@pytest.mark.parametrize("backend", ["closure", "numpy", "auto"])
@pytest.mark.parametrize("budget", [1, 500])
def test_reports_match_golden_at_any_lane_budget(monkeypatch, budget,
                                                 backend):
    monkeypatch.setattr(rule_verifier, "LANE_BUDGET", budget)
    mismatched = [(name, seed) for name in sorted(RULES) for seed in SEEDS
                  if report(name, seed, backend)
                  != GOLDEN[golden_key(name, seed)]]
    assert not mismatched
