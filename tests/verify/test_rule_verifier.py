"""The verifier must catch exactly the §2.4 bug classes: wrong semantics,
missing constant-range predicates, sign confusions."""

import threading

import pytest

import repro.verify.rule_verifier as rule_verifier
from repro import fpir as F
from repro.interp import EvalError
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import U8, U16
from repro.lifting import HAND_RULES
from repro.trs.matcher import Match, instantiate
from repro.trs.pattern import ConstWild, PConst, TVar, TWiden, Wild
from repro.trs.rule import Rule
from repro.verify import verify_equivalence, verify_rule

a = h.var("a", U8)
b = h.var("b", U8)


class TestEquivalence:
    def test_equal_expressions_pass(self):
        lhs = E.Add(h.u16(a), h.u16(b))
        rhs = F.WideningAdd(a, b)
        assert verify_equivalence(lhs, rhs) is None

    def test_counterexample_found(self):
        lhs = E.Add(a, b)  # wrapping
        rhs = F.SaturatingAdd(a, b)  # saturating
        cex = verify_equivalence(lhs, rhs)
        assert cex is not None
        x, y = cex["env"]["a"], cex["env"]["b"]
        assert x + y > 255  # the wrap/saturate divergence point

    def test_type_mismatch_reported(self):
        cex = verify_equivalence(h.u16(a), h.i16(a))
        assert cex is not None and "type mismatch" in cex["reason"]

    @pytest.mark.parametrize("backend", ["closure", "numpy", "auto"])
    def test_side_that_does_not_compile_is_reported(self, backend):
        # a pattern leaf has no semantics: its side does not compile, and
        # the error is the report, as when it was met at the first run
        cex = verify_equivalence(E.Add(a, b), E.Add(a, Wild("w", U8)),
                                 backend=backend)
        assert cex == {"reason": "evaluation error: cannot evaluate "
                                 "node: Wild"}

    def test_boundary_bias_finds_edge_bugs(self):
        # wrong only at the signed minimum: abs vs identity-on-negatives
        x = h.var("x", h.I8)
        lhs = F.Abs(x)
        rhs = E.Reinterpret(
            U8, h.select(E.GE(x, 0), x, E.Sub(h.const(h.I8, 0), x))
        )
        # these ARE equal (wrapping negate); sanity check the harness
        assert verify_equivalence(lhs, rhs) is None

    def test_respects_var_bounds(self):
        from repro.analysis import Interval

        # equal only when a <= 100
        lhs = E.Add(a, h.const(U8, 100))
        rhs = F.SaturatingAdd(a, h.const(U8, 100))
        assert verify_equivalence(lhs, rhs) is not None
        assert (
            verify_equivalence(
                lhs, rhs, var_bounds={"a": Interval(0, 100)}
            )
            is None
        )

    @pytest.mark.parametrize("max_points", [0, -3])
    def test_max_points_below_one_is_rejected(self, max_points):
        # Thinning the sample sets toward an empty grid would never end,
        # so the call runs in a thread joined with a timeout: a
        # regression fails here instead of hanging the suite.
        outcome = []

        def call():
            try:
                verify_equivalence(
                    E.Add(h.u16(a), h.u16(b)), F.WideningAdd(a, b),
                    max_points=max_points,
                )
            except ValueError as exc:
                outcome.append(exc)
            else:
                outcome.append(None)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), "verify_equivalence did not return"
        assert isinstance(outcome[0], ValueError)


class TestRuleVerification:
    def test_sound_rule_passes(self):
        T = TVar("T", max_bits=32)
        rule = Rule(
            "ok",
            E.Add(
                E.Cast(TWiden(T), Wild("x", T)),
                E.Cast(TWiden(T), Wild("y", T)),
            ),
            F.WideningAdd(Wild("x", T), Wild("y", T)),
        )
        assert verify_rule(rule).ok

    def test_unsound_rule_caught(self):
        # claims plain add == saturating add
        T = TVar("T", max_bits=32)
        rule = Rule(
            "bad",
            E.Add(Wild("x", T), Wild("y", T)),
            F.SaturatingAdd(Wild("x", T), Wild("y", T)),
        )
        report = verify_rule(rule)
        assert not report.ok
        assert report.counterexample is not None

    def test_missing_range_predicate_caught(self):
        # §2.4's bug class: "missing predicates over the range of
        # constant values for which a rule is valid".  widen(x) << c ->
        # widening_shl(x, c) is wrong when c doesn't fit the narrow type.
        T = TVar("T", max_bits=32)
        rule = Rule(
            "no-range-check",
            E.Shl(
                E.Cast(TWiden(T), Wild("x", T)),
                ConstWild("c0", TWiden(T)),
            ),
            F.WideningShl(
                Wild("x", T), PConst(TVar("T"), lambda c: c["c0"])
            ),
        )
        report = verify_rule(rule)
        assert not report.ok

    def test_same_rule_with_predicate_passes(self):
        T = TVar("T", max_bits=32)
        rule = Rule(
            "with-range-check",
            E.Shl(
                E.Cast(TWiden(T), Wild("x", T)),
                ConstWild("c0", TWiden(T)),
            ),
            F.WideningShl(
                Wild("x", T), PConst(TVar("T"), lambda c: c["c0"])
            ),
            predicate=lambda m, ctx: 0
            <= m.consts["c0"]
            <= m.tenv["T"].max_value,
        )
        assert verify_rule(rule).ok

    def test_forced_consts(self):
        T = TVar("T", max_bits=32)
        rule = Rule(
            "shift-by-specific",
            E.Shl(
                E.Cast(TWiden(T), Wild("x", T)),
                ConstWild("c0", TWiden(T)),
            ),
            F.WideningShl(
                Wild("x", T), PConst(TVar("T"), lambda c: c["c0"])
            ),
        )
        assert verify_rule(rule, forced_consts={"c0": 3}).ok
        # 257 wraps to a shift of 1 in the narrow type, while the wide
        # shift by 257 gives 0: wrong for the u8 combo
        assert not verify_rule(rule, forced_consts={"c0": 257}).ok

    def test_never_satisfiable_predicate_reported(self):
        T = TVar("T", max_bits=32)
        rule = Rule(
            "dead",
            E.Add(Wild("x", T), ConstWild("c0", T)),
            E.Add(Wild("x", T), ConstWild("c0", T)),
            predicate=lambda m, ctx: False,
        )
        report = verify_rule(rule)
        assert not report.ok
        assert "predicate never satisfied" in report.counterexample["reason"]

    @pytest.mark.parametrize("budget", [
        {"max_type_combos": 0}, {"max_type_combos": -1},
        {"max_const_samples": 0}, {"max_const_samples": -1},
        {"max_points": 0}, {"max_points": -1},
    ])
    def test_budget_below_one_is_rejected(self, budget):
        # max_type_combos=0 checked no type assignment and failed a sound
        # rule; a negative max_const_samples turned the deterministic head
        # of the constant choices into "all but the last few"
        with pytest.raises(ValueError, match=next(iter(budget))):
            verify_rule(_hand_rule("lift-widening-add"), **budget)

    def test_report_counts(self):
        T = TVar("T", max_bits=32)
        rule = Rule(
            "ok2",
            F.WideningAdd(Wild("x", T), Wild("y", T)),
            F.WideningAdd(Wild("y", T), Wild("x", T)),
        )
        report = verify_rule(rule)
        assert report.ok and report.checked_combos >= 4


BUDGET = {"max_type_combos": 6, "max_const_samples": 4, "max_points": 400}


def _hand_rule(name):
    return next(r for r in HAND_RULES if r.name == name)


@pytest.fixture
def cold_programs():
    """An empty program cache before and after the test: a test that
    spies on the verifier's compiles sees each one, and leaves no
    program it wrapped behind for later tests."""
    rule_verifier._clear_programs()
    yield
    rule_verifier._clear_programs()


class TestLhsBuiltOnDemand:
    """A constant choice the predicate rejects costs no left-hand-side
    build, and a predicate that reads ``m.root`` still gets the
    instantiated left-hand side."""

    def test_rejected_constant_choices_build_nothing(self, monkeypatch):
        calls = []
        real = rule_verifier.instantiate

        def counting(pattern, m):
            calls.append(pattern)
            return real(pattern, m)

        monkeypatch.setattr(rule_verifier, "instantiate", counting)
        # the clamp-bound predicate accepts few of its constant pairs
        report = verify_rule(_hand_rule("lift-sat-cast-minmax"), seed=0,
                             **BUDGET)
        assert report.ok and report.checked_points >= 1
        # one left-hand and one right-hand side per checked point
        assert len(calls) <= 2 * report.checked_points

    def test_predicate_reading_root_sees_the_lhs(self):
        T = TVar("T", max_bits=32)
        lhs = E.Add(Wild("x", T), ConstWild("c0", T))
        seen = []

        def pred(m, ctx):
            seen.append((m.root, m.env, m.tenv, m.consts))
            return isinstance(m.root, E.Add) and m.consts["c0"] == 2

        rule = Rule("add-2-commutes", lhs,
                    E.Add(ConstWild("c0", T), Wild("x", T)), predicate=pred)
        report = verify_rule(rule, **BUDGET)
        assert report.ok and report.checked_points >= 1
        assert seen
        for root, env, tenv, consts in seen:
            assert root == instantiate(
                lhs, Match(env=env, tenv=tenv, consts=consts)
            )

    def test_reading_root_does_not_change_the_report(self):
        # Some type assignments of this rule give an ill-typed left-hand
        # side; reading root there must skip the constant choice, just
        # as it is skipped when the predicate does not read root.
        base = _hand_rule("lift-mul-shr-uu")
        reads_root = Rule(
            base.name, base.lhs, base.rhs,
            predicate=lambda m, ctx: (m.root is not None
                                      and base.predicate(m, ctx)),
        )
        for seed in (0, 1):
            assert (verify_rule(reads_root, seed=seed, **BUDGET).to_dict()
                    == verify_rule(base, seed=seed, **BUDGET).to_dict())


class TestTemplates:
    """Each type assignment instantiates and compiles the rule's two
    sides once; constants are variables held at each choice's values."""

    @pytest.mark.usefixtures("cold_programs")
    def test_one_program_pair_per_type_assignment(self, monkeypatch):
        roots = set()
        real = rule_verifier.compile_for_backend

        def recording(expr, backend=None):
            roots.add(expr)
            return real(expr, backend)

        monkeypatch.setattr(rule_verifier, "compile_for_backend", recording)
        report = verify_rule(_hand_rule("lift-widening-mul-pow2"), seed=0,
                             **BUDGET)
        assert report.ok and report.checked_combos == 6
        assert report.checked_points > 100
        # a fresh pair of programs per checked point would be 430 roots
        assert len(roots) <= 2 * report.checked_combos

    def test_parameter_names_avoid_the_rules_wildcards(self):
        # x - c0 -> c0 - x is unsound.  Name its input wildcard after the
        # variable that a constant would otherwise become: if the two
        # shared a name, both sides would read x - x and verify.
        T = TVar("T", max_bits=32)

        def rule(name):
            x = Wild(name, T)
            c0 = ConstWild("c0", T)
            return Rule("sub-commutes", E.Sub(x, c0), E.Sub(c0, x))

        _, cwilds = rule_verifier._collect_wilds(rule("x").lhs)
        param = rule_verifier._Templates(rule("x"), cwilds).const_vars["c0"]
        report = verify_rule(rule(param), **BUDGET)
        assert not report.ok
        assert set(report.counterexample["env"]) == {param}
        assert report.counterexample["consts"] == {"c0": 0}


def widen_twice(name, predicate=None):
    """x + c0, rebuilt through a doubly widened add: sound wherever it
    builds, but the right-hand side has no type at 64 bits (nothing is
    wider than 128), while the left-hand side builds there."""
    T = TVar("T", min_bits=32, max_bits=64)
    x, c0 = Wild("x", T), ConstWild("c0", T)
    wide = TWiden(TWiden(T))
    return Rule(name, E.Add(x, c0),
                E.Cast(TVar("T"), E.Add(E.Cast(wide, x), E.Cast(wide, c0))),
                predicate=predicate)


def rhs_failure(combos, points, c0):
    return {
        "ok": False, "checked_combos": combos, "checked_points": points,
        "counterexample": {"reason": "rhs build failed: cannot widen u128",
                           "tenv": {"T": "u64"}, "consts": {"c0": c0}},
        "notes": [],
    }


class TestOneCheckPath:
    """Every constant choice is checked through its type assignment's
    compiled templates.  A side that does not build is found when they
    are built: an unbuilt left-hand side ends the assignment's choices,
    an unbuilt right-hand side fails the rule."""

    # recorded when a choice whose template did not build built its own
    # sides, and never regenerated
    @pytest.mark.parametrize("backend", ["closure", "numpy", "auto"])
    @pytest.mark.parametrize("rule,seed,expected", [
        (widen_twice("rhs-widen-fails-at-64"), 0,
         rhs_failure(2, 91, 0)),
        (widen_twice("rhs-widen-fails-at-64"), 1,
         rhs_failure(2, 91, 0)),
        (widen_twice("rhs-odd", lambda m, ctx: m.consts["c0"] % 2 == 1), 0,
         rhs_failure(2, 20, 1)),
        (widen_twice("rhs-odd", lambda m, ctx: m.consts["c0"] % 2 == 1), 1,
         rhs_failure(2, 19, 1)),
    ], ids=["unpredicated-0", "unpredicated-1", "odd-0", "odd-1"])
    def test_rhs_that_does_not_build_is_reported(self, rule, seed,
                                                 expected, backend):
        report = verify_rule(rule, seed=seed, backend=backend, **BUDGET)
        assert report.to_dict() == dict(expected, rule_name=rule.name)

    def test_lhs_that_does_not_build_ends_the_assignment(self):
        # x + c0 does not build when x and c0 differ in type
        calls = {}

        def pred(m, ctx):
            key = (m.tenv["T"], m.tenv["S"])
            calls[key] = calls.get(key, 0) + 1
            return True

        T, S = TVar("T", max_bits=16), TVar("S", max_bits=16)
        x, c0 = Wild("x", T), ConstWild("c0", S)
        report = verify_rule(Rule("add-commutes", E.Add(x, c0),
                                  E.Add(c0, x), predicate=pred), **BUDGET)
        assert report.ok and report.checked_combos == 6
        assert {key for key, n in calls.items() if n > 1} == {
            (t, s) for t, s in calls if t == s}
        assert all(n == 1 for (t, s), n in calls.items() if t != s)

    def test_no_choice_is_checked_on_its_own(self, monkeypatch):
        def alone(*args, **kwargs):
            raise AssertionError("verify_rule checked one choice alone")

        monkeypatch.setattr(rule_verifier, "verify_equivalence", alone)
        T = TVar("T", max_bits=32)
        x, c0 = Wild("x", T), ConstWild("c0", T)
        raises_at_2 = Rule(
            "raises-at-2", E.Add(x, c0),
            E.Add(x, PConst(T, lambda c: c["c0"] + 0 // (c["c0"] - 2))))
        for rule in (_hand_rule("lift-mul-shr-uu"), raises_at_2,
                     widen_twice("rhs-widen-fails-at-64")):
            verify_rule(rule, **BUDGET)
        report = verify_rule(raises_at_2, **BUDGET)
        assert report.counterexample["reason"] == (
            "rhs build failed: integer division or modulo by zero")


def record_calls(monkeypatch, rule, budget=None):
    """Verify ``rule`` at seed 0 and the bench budgets (at lane budget
    ``budget`` if given); return the report and ``(root, lanes)`` of
    each call of a compiled program."""
    calls = []
    real = rule_verifier.compile_for_backend

    def recording(expr, backend=None):
        program = real(expr, backend)

        def call(env, lanes=None):
            calls.append((expr, lanes))
            return program(env, lanes)

        return call

    with monkeypatch.context() as patch:
        patch.setattr(rule_verifier, "compile_for_backend", recording)
        if budget is not None:
            patch.setattr(rule_verifier, "LANE_BUDGET", budget)
        # compile afresh: a test may record two runs of one rule
        rule_verifier._clear_programs()
        report = verify_rule(rule, seed=0, **BUDGET)
    return report, calls


def pack(sizes, budget):
    """Consecutive checks' lane counts, packed greedily into chunks of
    at most ``budget`` lanes (a larger check alone)."""
    chunks = []
    for n in sizes:
        if chunks and chunks[-1] + n <= budget:
            chunks[-1] += n
        else:
            chunks.append(n)
    return chunks


@pytest.mark.usefixtures("cold_programs")
class TestChunks:
    """A type assignment's constant choices are queued as checks and
    evaluated together: each side's program runs once per chunk of
    checks that fits the lane budget, and a check larger than the budget
    is a chunk on its own."""

    RULE = "lift-widening-mul-pow2"

    def checks(self, monkeypatch):
        """Each checked point's lane count, grouped by type assignment
        (its left-hand template), from a run that evaluates each check
        alone."""
        report, calls = record_calls(monkeypatch, _hand_rule(self.RULE),
                                     budget=1)
        assert report.ok and report.checked_points == 215
        assert len(calls) == 2 * 215
        groups = {}
        for root, lanes in calls[::2]:
            groups.setdefault(root, []).append(lanes)
        assert len(groups) == report.checked_combos == 6
        return groups

    def test_one_call_per_side_per_chunk(self, monkeypatch):
        report, calls = record_calls(monkeypatch, _hand_rule(self.RULE))
        assert report.ok and report.checked_points == 215
        # each type assignment's checks fit one chunk: a call per side
        # per assignment, where a call per checked point made 430
        assert len(calls) == 2 * report.checked_combos
        # lhs then rhs, over the same lanes
        chunks = [n for _, n in calls[::2]]
        assert chunks == [n for _, n in calls[1::2]]
        groups = self.checks(monkeypatch)
        assert chunks == [sum(sizes) for sizes in groups.values()]
        assert max(chunks) <= rule_verifier.LANE_BUDGET

    @pytest.mark.parametrize("budget", [12, 25, 100])
    def test_chunks_fit_the_budget(self, monkeypatch, budget):
        # the checks hold 11 or 14 lanes: at 12 each is alone and the
        # 14-lane ones exceed the budget, at 25 two share a chunk
        groups = self.checks(monkeypatch)
        report, calls = record_calls(monkeypatch, _hand_rule(self.RULE),
                                     budget=budget)
        assert report.ok and report.checked_points == 215
        chunks = [n for _, n in calls[::2]]
        assert chunks == [n for _, n in calls[1::2]]
        assert chunks == [c for sizes in groups.values()
                          for c in pack(sizes, budget)]
        singles = {n for sizes in groups.values() for n in sizes}
        assert all(n <= budget or n in singles for n in chunks)

    @pytest.mark.parametrize("rhs, reason", [
        # sound: the error at c0 = 2 is the report
        (lambda x, c0: E.Add(c0, x), "evaluation error: lanes hold c0 = 2"),
        # unsound at c0 = 1 (x + 1 != x | 1 for even x), before the error
        (lambda x, c0: E.BitOr(x, c0), None),
    ], ids=["sound", "unsound-before-error"])
    def test_evaluation_error_reported_at_its_check(self, monkeypatch, rhs,
                                                    reason):
        T = TVar("T", max_bits=32)
        x, c0 = Wild("x", T), ConstWild("c0", T)
        rule = Rule("add-c0", E.Add(x, c0), rhs(x, c0))
        _, cwilds = rule_verifier._collect_wilds(rule.lhs)
        param = rule_verifier._Templates(rule, cwilds).const_vars["c0"]
        real = rule_verifier.compile_for_backend

        def raising_at_2(expr, backend=None):
            # as if a program could not evaluate a lane where c0 = 2
            program = real(expr, backend)

            def call(env, lanes=None):
                if param in env and 2 in list(env[param]):
                    raise EvalError("lanes hold c0 = 2")
                return program(env, lanes)

            return call

        monkeypatch.setattr(rule_verifier, "compile_for_backend",
                            raising_at_2)
        reports = []
        for budget in (1, rule_verifier.LANE_BUDGET):
            monkeypatch.setattr(rule_verifier, "LANE_BUDGET", budget)
            reports.append(verify_rule(rule, seed=0, **BUDGET).to_dict())
        assert reports[0] == reports[1]
        cex = reports[1]["counterexample"]
        if reason is None:
            assert cex["consts"] == {"c0": 1} and "env" in cex
            assert reports[1]["checked_points"] == 2
        else:
            assert cex["reason"] == reason and cex["consts"] == {"c0": 2}
            assert reports[1]["checked_points"] == 3
