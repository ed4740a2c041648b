"""Static linting of rewrite-rule lists (``python -m repro lint``).

Complements the *dynamic* sampling verifier (:mod:`repro.verify`): these
checks need no evaluation, run on every rulebase including lowering rules
whose right-hand sides contain target instructions, and catch whole
classes of rule-authoring mistakes the verifier's input sampling can miss
(an unbound RHS wildcard only explodes when the rule first fires; a
shadowed rule never explodes at all, it just silently does nothing).

Diagnostic codes (full table in :mod:`repro.lint.diagnostics` and
DESIGN.md):

* L101 RHS wildcard unbound by the LHS
* L102 RHS type variable unbound by the LHS
* L103 unsatisfiable type constraints (no admissible type assignment)
* L104 computed (callable) ``PConst`` on the LHS — can never match
* L105 rule shadowed by an earlier, unpredicated, more-general rule
* L106 RHS never cost-decreasing (dead under the cost-gated lift engine)
* L107 interval analysis proves LHS/RHS ranges disjoint (unsound rule)
* L108 predicate reaches outside the ``RuleContext`` API
* L109 duplicate rule name within a rulebase

L105 is deliberately *conservative generality*: it claims subsumption
only when it can prove the earlier pattern matches everything the later
one does (it gives up on complex type-pattern relationships rather than
guess).  In cost-gated rulebases an earlier match can still be rejected
by the cost gate — letting the later rule fire — so L105 is a warning,
cross-checkable against the coverage sweep (``lint --coverage`` drops
L105 findings for rules the suite demonstrably fires).
"""

from __future__ import annotations

import dis
import inspect
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..analysis import BoundsAnalyzer, BoundsContext
from ..ir.expr import Const, Expr, Var
from ..ir.types import ScalarType
from ..trs.costs import cost
from ..trs.matcher import Match, instantiate
from ..trs.pattern import (
    ConstWild,
    PConst,
    TVar,
    TypePattern,
    Wild,
)
from ..trs.rule import Rule, RuleContext
from ..verify.rule_verifier import (
    _collect_tvars,
    _collect_wilds,
    _enumerate_const_choices,
    _iter_type_patterns,
    _resolvable,
    _restricted_hints,
    _type_assignments,
    _wildcard_types,
)
from .diagnostics import Diagnostic

__all__ = ["LintReport", "lint_rules", "lint_all_rulebases"]


@dataclass
class LintReport:
    """All diagnostics from linting one or more rulebases."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: ruleset label -> number of rules linted
    rule_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def format_text(self) -> str:
        lines = []
        for label, n in self.rule_counts.items():
            found = [d for d in self.diagnostics if d.ruleset == label]
            lines.append(
                f"-- {label}: {n} rules, "
                f"{len(found)} diagnostic{'s' if len(found) != 1 else ''}"
            )
            for d in found:
                lines.append(f"   {d}")
        lines.append(
            f"lint: {sum(self.rule_counts.values())} rules, "
            f"{len(self.errors)} error{'s' if len(self.errors) != 1 else ''}, "
            f"{len(self.warnings)} warning"
            f"{'s' if len(self.warnings) != 1 else ''}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_counts": dict(self.rule_counts),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


# ----------------------------------------------------------------------
# Per-rule checks
# ----------------------------------------------------------------------
def _wild_names(e: Expr) -> set:
    wilds, cwilds = _collect_wilds(e)
    return set(wilds) | set(cwilds)


def _check_bindings(rule: Rule, ruleset: str) -> List[Diagnostic]:
    """L101 (unbound RHS wildcards) and L102 (unbound RHS tvars)."""
    out = []
    unbound = sorted(_wild_names(rule.rhs) - _wild_names(rule.lhs))
    for name in unbound:
        out.append(Diagnostic(
            "L101", rule.name,
            f"RHS wildcard ?{name} is never bound by the LHS",
            ruleset,
        ))
    # Any TVar occurring anywhere in the LHS can be bound by matching;
    # requiring strictly more (e.g. occurrence in a unified position)
    # would risk false positives, so only flag names absent entirely.
    lhs_tv = set(_collect_tvars(rule.lhs))
    rhs_tv = set(_collect_tvars(rule.rhs))
    for name in sorted(rhs_tv - lhs_tv):
        out.append(Diagnostic(
            "L102", rule.name,
            f"RHS type variable {name} is never bound by the LHS",
            ruleset,
        ))
    return out


def _check_lhs_pconst(rule: Rule, ruleset: str) -> List[Diagnostic]:
    """L104: a computed PConst can only be *instantiated*, not matched."""
    out = []
    for node in rule.lhs.walk():
        if isinstance(node, PConst) and not isinstance(node.value, int):
            out.append(Diagnostic(
                "L104", rule.name,
                "computed PConst on the LHS never matches "
                "(the matcher rejects callable values)",
                ruleset,
            ))
    return out


def _merged_tvars(rule: Rule) -> Dict[str, List[TVar]]:
    """TVar occurrences from both sides, so one assignment must satisfy
    the whole rule (the RHS adds constraints, e.g. a narrower max_bits)."""
    merged = dict(_collect_tvars(rule.lhs))
    for name, occurrences in _collect_tvars(rule.rhs).items():
        merged.setdefault(name, []).extend(occurrences)
    return merged


def _admissible_tenvs(
    rule: Rule, limit: int
) -> List[Dict[str, ScalarType]]:
    """Type assignments under which every type pattern in the rule
    resolves (L103 fires when there are none)."""
    patterns = list(_iter_type_patterns(rule.lhs))
    patterns += list(_iter_type_patterns(rule.rhs))
    out = []
    for tenv in _type_assignments(_merged_tvars(rule), limit):
        if all(
            _resolvable(tp, tenv) is not None
            for tp in patterns
            if isinstance(tp, TypePattern)
        ):
            out.append(tenv)
    return out


# -- sampling concrete instantiations (shared by L106/L107) ------------
@dataclass
class _Sample:
    match: Match
    lhs: Expr
    rhs: Optional[Expr]
    wild_types: Dict[str, ScalarType]
    tenv: Dict[str, ScalarType]
    consts: Dict[str, int]


def _sample_instantiations(
    rule: Rule,
    tenvs: Iterable[Dict[str, ScalarType]],
    rng: random.Random,
    max_consts: int = 8,
    cap: int = 24,
) -> List[_Sample]:
    samples: List[_Sample] = []
    for tenv, wild_types, cwild_types in _wildcard_types(
            *_collect_wilds(rule.lhs), tenvs):
        env = {name: Var(t, name) for name, t in wild_types.items()}
        choices = _enumerate_const_choices(cwild_types, rng, max_consts)
        for const_env in choices[: max_consts]:
            full_env = dict(env)
            full_env.update({
                name: Const(cwild_types[name], v)
                for name, v in const_env.items()
            })
            m = Match(
                env=full_env, tenv=dict(tenv), consts=dict(const_env)
            )
            try:
                lhs_c = instantiate(rule.lhs, m)
                m.root = lhs_c
            except Exception:
                continue  # ill-typed const/type combination
            try:
                rhs_c = instantiate(rule.rhs, m)
            except Exception:
                rhs_c = None
            samples.append(_Sample(
                m, lhs_c, rhs_c, wild_types, dict(tenv), dict(const_env)
            ))
            if len(samples) >= cap:
                return samples
    return samples


def _check_cost_decrease(
    rule: Rule, samples: List[_Sample], ruleset: str
) -> List[Diagnostic]:
    """L106: in a cost-gated engine, a rule whose RHS never costs less
    than its LHS can never be applied."""
    seen = False
    for s in samples:
        if s.rhs is None:
            continue
        seen = True
        if cost(s.rhs) < cost(s.lhs):
            return []
    if not seen:
        return []
    return [Diagnostic(
        "L106", rule.name,
        "RHS cost never decreases over sampled instantiations; the "
        "cost-gated lift engine will never apply this rule",
        ruleset,
    )]


def _check_interval_soundness(
    rule: Rule, samples: List[_Sample], ruleset: str
) -> List[Diagnostic]:
    """L107: if both sides' (sound, over-approximate) intervals are
    disjoint at some instantiation where the predicate holds, the exact
    value sets disagree and the rule cannot preserve semantics."""
    for s in samples:
        if s.rhs is None:
            continue
        tl, tr = s.lhs.type, s.rhs.type
        if not isinstance(tl, ScalarType) or tl != tr:
            continue  # cross-type rules are the dynamic verifier's job
        for hints in (None, _restricted_hints(s.wild_types)):
            analyzer = BoundsAnalyzer(hints)
            if rule.predicate is not None:
                try:
                    fires = rule.predicate(s.match, BoundsContext(analyzer))
                except Exception:
                    # A raising predicate already violates the RuleContext
                    # contract (L108 territory); don't let it kill the lint.
                    continue
                if not fires:
                    continue
            bl = analyzer.bounds(s.lhs)
            br = analyzer.bounds(s.rhs)
            if bl.hi < br.lo or br.hi < bl.lo:
                tenv = {k: str(v) for k, v in s.tenv.items()}
                return [Diagnostic(
                    "L107", rule.name,
                    f"interval analysis proves the sides disagree at "
                    f"{tenv or 'the only type assignment'}"
                    f"{f', consts {s.consts}' if s.consts else ''}: "
                    f"LHS in [{bl.lo}, {bl.hi}] but RHS in "
                    f"[{br.lo}, {br.hi}]",
                    ruleset,
                )]
    return []


# -- predicate hygiene (L108) ------------------------------------------
#: the only attributes a predicate may touch on its RuleContext argument
_RULECONTEXT_API = tuple(
    name for name in vars(RuleContext) if not name.startswith("_")
)
#: context/analyzer internals predicates must not reach into
_FORBIDDEN_ATTRS = {"analyzer", "var_bounds", "_cache"}


def _code_objects(fn: Callable) -> List:
    """The predicate's code object plus nested ones (lambdas, closures)."""
    while hasattr(fn, "func"):  # functools.partial
        fn = fn.func
    code = getattr(fn, "__code__", None)
    if code is None:
        return []
    out, todo = [], [code]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(k for k in c.co_consts if inspect.iscode(k))
    return out


def _check_predicate(rule: Rule, ruleset: str) -> List[Diagnostic]:
    if rule.predicate is None:
        return []
    out = []
    codes = _code_objects(rule.predicate)
    if not codes:
        return [Diagnostic(
            "L108", rule.name,
            "predicate is not introspectable (no __code__); use a plain "
            "function of (match, ctx)",
            ruleset,
        )]
    bad: List[str] = []
    for code in codes:
        for instr in dis.get_instructions(code):
            if instr.opname not in (
                "LOAD_ATTR", "LOAD_METHOD", "STORE_ATTR"
            ):
                continue
            attr = instr.argval
            if not isinstance(attr, str):
                continue
            if attr.startswith("_") or attr in _FORBIDDEN_ATTRS:
                bad.append(attr)
    for attr in sorted(set(bad)):
        out.append(Diagnostic(
            "L108", rule.name,
            f"predicate accesses non-API attribute .{attr}; predicates "
            f"must stick to the RuleContext API "
            f"({', '.join(sorted(_RULECONTEXT_API))}) and public match "
            f"fields",
            ruleset,
        ))
    return out


# -- shadowing / subsumption (L105) ------------------------------------
def _covers_type(p: object, q: object, tbind: Dict[str, object]) -> bool:
    """Does pattern-type ``p`` admit every type pattern-type ``q`` can
    take?  Conservative: returns False when unsure."""
    if isinstance(p, ScalarType):
        return isinstance(q, ScalarType) and p == q
    if isinstance(p, TVar):
        bound = tbind.get(p.name)
        if bound is not None:
            return _same_type_shape(bound, q)
        if isinstance(q, ScalarType):
            if not p.admits(q):
                return False
        elif isinstance(q, TVar):
            if p.signed is not None and q.signed != p.signed:
                return False
            if q.min_bits < p.min_bits or q.max_bits > p.max_bits:
                return False
        else:
            return False  # TWiden/TNarrow/TWithSign: give up
        tbind[p.name] = q
        return True
    return False  # a structured pattern as the general side: give up


def _same_type_shape(a: object, b: object) -> bool:
    if isinstance(a, ScalarType) or isinstance(b, ScalarType):
        return a == b
    if isinstance(a, TVar) and isinstance(b, TVar):
        return a.name == b.name
    return a is b


def _subsumes(general: Expr, specific: Expr) -> bool:
    """True only if ``general`` provably matches every expression that
    ``specific`` matches (so a later rule with LHS ``specific`` behind an
    earlier unpredicated rule with LHS ``general`` is unreachable)."""
    ebind: Dict[str, Expr] = {}
    tbind: Dict[str, object] = {}

    def walk(p: Expr, q: Expr) -> bool:
        if isinstance(p, ConstWild):
            if not isinstance(q, (ConstWild, Const)) and not (
                isinstance(q, PConst) and isinstance(q.value, int)
            ):
                return False
            if not _covers_type(p.type_pattern, q.type, tbind):
                return False
            return _bind(p.name, q)
        if isinstance(p, Wild):
            if not _covers_type(p.type_pattern, q.type, tbind):
                return False
            return _bind(p.name, q)
        if isinstance(p, (Const, PConst)):
            pv = p.value
            if not isinstance(pv, int):
                return False  # computed constant: matching is undefined
            if isinstance(q, (Const, PConst)):
                return q.value == pv and _covers_type(
                    p.type, q.type, tbind
                )
            return False
        if type(p) is not type(q):
            return False
        for f in p._fields:
            pv, qv = getattr(p, f), getattr(q, f)
            if isinstance(pv, Expr) and isinstance(qv, Expr):
                if not walk(pv, qv):
                    return False
            elif isinstance(pv, (ScalarType, TypePattern)):
                if not _covers_type(pv, qv, tbind):
                    return False
            elif pv != qv:
                return False
        return True

    def _bind(name: str, q: Expr) -> bool:
        prev = ebind.get(name)
        if prev is None:
            ebind[name] = q
            return True
        return prev == q  # nonlinear pattern: must see equal subtrees

    return walk(general, specific)


def _check_shadowing(
    rules: List[Rule], ruleset: str
) -> List[Diagnostic]:
    out = []
    by_root: Dict[type, List[Rule]] = {}
    for r in rules:
        by_root.setdefault(type(r.lhs), []).append(r)
    for bucket in by_root.values():
        for j, later in enumerate(bucket):
            for earlier in bucket[:j]:
                if earlier.predicate is not None:
                    continue  # a failing predicate lets the later rule run
                if _subsumes(earlier.lhs, later.lhs):
                    out.append(Diagnostic(
                        "L105", later.name,
                        f"shadowed by earlier unpredicated rule "
                        f"'{earlier.name}' whose pattern is at least as "
                        f"general",
                        ruleset,
                    ))
                    break
    return out


# ----------------------------------------------------------------------
# Rulebase driver
# ----------------------------------------------------------------------
def lint_rules(
    rules: List[Rule],
    ruleset: str,
    cost_gated: bool = False,
    seed: int = 0,
    max_type_combos: int = 6,
) -> List[Diagnostic]:
    """Lint one rulebase; ``cost_gated`` enables L106 (the lifting
    engine requires every application to strictly decrease cost)."""
    rng = random.Random(seed)
    out: List[Diagnostic] = []
    seen_names: set = set()
    for rule in rules:
        if rule.name in seen_names:
            out.append(Diagnostic(
                "L109", rule.name, "duplicate rule name", ruleset
            ))
        seen_names.add(rule.name)
        out.extend(_check_bindings(rule, ruleset))
        out.extend(_check_lhs_pconst(rule, ruleset))
        out.extend(_check_predicate(rule, ruleset))
        tenvs = _admissible_tenvs(rule, limit=max_type_combos)
        if not tenvs:
            out.append(Diagnostic(
                "L103", rule.name,
                "no concrete type assignment satisfies the rule's type "
                "patterns",
                ruleset,
            ))
            continue  # instantiation-based checks need an assignment
        samples = _sample_instantiations(rule, tenvs, rng)
        if cost_gated:
            out.extend(_check_cost_decrease(rule, samples, ruleset))
        out.extend(_check_interval_soundness(rule, samples, ruleset))
    out.extend(_check_shadowing(rules, ruleset))
    return out


def lint_all_rulebases(
    coverage_fires: Optional[Dict[str, int]] = None,
) -> LintReport:
    """Lint every shipped rulebase (:func:`repro.rulesets.rule_sets`;
    the lifting sets are cost-gated).

    ``coverage_fires`` (rule name -> fire count from a coverage sweep)
    cross-checks L105: a "shadowed" rule that demonstrably fires is a
    false claim (the cost gate or a predicate let it through), so its
    finding is dropped; surviving findings are annotated as 0-fire.
    """
    from ..rulesets import rule_sets

    report = LintReport()
    for rs in rule_sets():
        diags = lint_rules(rs.rules, rs.label, cost_gated=rs.phase == "lift")
        if coverage_fires is not None:
            diags = _cross_check_shadowing(diags, coverage_fires)
        report.rule_counts[rs.label] = len(rs.rules)
        report.diagnostics.extend(diags)
    return report


def _cross_check_shadowing(
    diags: List[Diagnostic], fires: Dict[str, int]
) -> List[Diagnostic]:
    out = []
    for d in diags:
        if d.code != "L105":
            out.append(d)
            continue
        n = fires.get(d.subject)
        if n:
            continue  # the rule fires in practice; the claim is wrong
        out.append(Diagnostic(
            d.code, d.subject,
            d.message + " (0 fires in the coverage sweep)"
            if n == 0 else d.message,
            d.ruleset,
        ))
    return out
