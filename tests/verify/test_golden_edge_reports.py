"""Golden verification reports for the verifier's edge paths.

``golden_edge_reports.json`` holds :meth:`VerificationReport.to_dict`
for the paths the lifting-rule fixture (``golden_reports.json``) does
not reach:

* every lifting rule with a constant wildcard, each of its constant
  wildcards forced to 1, 3, 8, 255 and 256 (the §4.3 generalizer's
  ``forced_consts`` path), at the benchmark budgets and the defaults;
* a rule whose computed constant divides by zero at ``c0 = 2``, which
  ends in ``rhs build failed``;
* predicates that read ``m.root``, one of them on a rule whose
  left-hand side does not build at some type assignments;
* unsound rules whose input wildcard carries a ``$`` name.

The fixture was written once, before the verifier instantiated rules
as per-type-assignment templates, and is never regenerated: any change
to these reports is a change to the verifier's verdicts.  Both
evaluation backends must reproduce it.
"""

import json
from pathlib import Path

import pytest

from repro import fpir as F
from repro.ir import expr as E
from repro.lifting import HAND_RULES, SYNTHESIZED_RULES
from repro.trs.pattern import ConstWild, PConst, TVar, Wild
from repro.trs.rule import Rule
from repro.verify import verify_rule

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_edge_reports.json").read_text()
)
SEEDS = (0, 1)
BUDGETS = {
    "bench": {"max_type_combos": 6, "max_const_samples": 4,
              "max_points": 400},
    "default": {},
}
FORCED = (1, 3, 8, 255, 256)
LIFTING = {r.name: r for r in HAND_RULES + SYNTHESIZED_RULES}


def const_wildcards(rule):
    return sorted({n.name for n in rule.lhs.walk()
                   if isinstance(n, ConstWild)})


def edge_rules():
    """Rules that reach the verifier's fallback and root-reading paths."""
    T = TVar("T", max_bits=32)
    x, c0 = Wild("x", T), ConstWild("c0", T)
    mul_shr = LIFTING["lift-mul-shr-uu"]

    def add_two_only(m, ctx):
        return isinstance(m.root, E.Add) and m.consts["c0"] == 2

    rules = [
        # sound wherever it builds, but the computed constant divides
        # by zero at c0 = 2, a sampled value
        Rule("raises-at-2",
             E.Add(x, c0),
             E.Add(x, PConst(T, lambda c: c["c0"] + 0 // (c["c0"] - 2)))),
        Rule("reads-root-add-2", E.Add(x, c0), E.Add(c0, x),
             predicate=add_two_only),
        Rule("reads-root-mul-shr", mul_shr.lhs, mul_shr.rhs,
             predicate=lambda m, ctx: (m.root is not None
                                       and mul_shr.predicate(m, ctx))),
    ]
    # x - c0 -> c0 - x is unsound; a constant turned into a variable
    # must not take the input wildcard's name
    for name in ("$c0", "$0", "$1"):
        w = Wild(name, T)
        rules.append(Rule(f"collide-{name}", E.Sub(w, c0), E.Sub(c0, w)))
    return rules


def cases():
    """Fixture key -> (rule, verify_rule keyword arguments)."""
    out = {}
    for budget, kwargs in BUDGETS.items():
        for name, rule in sorted(LIFTING.items()):
            names = const_wildcards(rule)
            if not names:
                continue
            for v in FORCED:
                out[f"{name}|forced={v}|{budget}"] = (
                    rule,
                    dict(kwargs, forced_consts={n: v for n in names}),
                )
        for rule in edge_rules():
            for seed in SEEDS:
                out[f"{rule.name}|seed={seed}|{budget}"] = (
                    rule, dict(kwargs, seed=seed),
                )
    return out


CASES = cases()


def test_golden_covers_every_case():
    assert len(LIFTING) == 64
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("backend", ["closure", "numpy"])
def test_edge_reports_match_golden(backend):
    mismatched = []
    for key, (rule, kwargs) in CASES.items():
        report = verify_rule(rule, backend=backend, **kwargs)
        # through JSON, so tuples and int keys compare as the fixture has
        if json.loads(json.dumps(report.to_dict())) != GOLDEN[key]:
            mismatched.append(key)
    assert not mismatched
