"""Bounded verification of rewrite rules (§2.4 "Verifying Hand-Written
Rules", with Z3 replaced by boundary-biased, randomized sampling).

A rule ``lhs -> rhs [predicate]`` is *verified* by:

1. enumerating the concrete type assignments its type variables admit,
   at most ``max_type_combos`` of them;
2. for each assignment, instantiating both sides once as *templates*
   over input variables, with every constant (a constant wildcard or a
   computed right-hand-side constant) turned into a variable too, then
   walking sampled constant choices (boundary values, powers of two, and
   random values — a choice failing the predicate is skipped, since a
   predicated rule only claims correctness when the predicate holds);
3. checking each remaining choice, lane by lane, on a boundary-biased
   input grid (full cross product of per-variable sample sets) with the
   constant variables held at the choice's values on every lane — and
   that the two sides have the same static type.  The choices' grids
   are queued and laid end to end, so each side's program runs once per
   chunk of at most ``LANE_BUDGET`` lanes, not once per choice; the
   chunks are scanned in choice order, so a failure is reported at the
   same choice, lane and counts as one call per choice would give.

This is the "small-world" substitute for the paper's Rosette/Z3 pipeline:
the same class of bugs the paper reports finding (missing constant-range
predicates, semantics that don't match documentation) produce concrete
counterexamples here.  See DESIGN.md §1 for the substitution rationale.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis import BoundsAnalyzer, BoundsContext, Interval
from ..interp import EvalError, compile_for_backend, maybe_prepare_env
from ..ir.expr import Const, Expr, Var
from ..ir.types import ARITH_TYPES, ScalarType
from ..trs.matcher import Match, instantiate
from ..trs.pattern import (
    ConstWild,
    PConst,
    TNarrow,
    TVar,
    TWiden,
    TWithSign,
    TypePattern,
    Wild,
    resolve_type,
)
from ..trs.rule import Rule

__all__ = ["VerificationReport", "verify_rule", "verify_equivalence"]


@dataclass
class VerificationReport:
    """Outcome of verifying one rule."""

    rule_name: str
    ok: bool
    checked_combos: int
    checked_points: int
    counterexample: Optional[dict] = None
    notes: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok

    def to_dict(self) -> dict:
        """JSON-ready form (the fabric's cached-verdict payload)."""
        return {
            "rule_name": self.rule_name,
            "ok": self.ok,
            "checked_combos": self.checked_combos,
            "checked_points": self.checked_points,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            rule_name=d["rule_name"],
            ok=d["ok"],
            checked_combos=d["checked_combos"],
            checked_points=d["checked_points"],
            counterexample=d["counterexample"],
            notes=list(d["notes"]),
        )


# ----------------------------------------------------------------------
# Pattern introspection
# ----------------------------------------------------------------------
def _iter_type_patterns(e: Expr):
    for node in e.walk():
        for f in node._fields:
            v = getattr(node, f)
            if isinstance(v, (TypePattern, ScalarType)):
                yield v
        t = node.type
        if isinstance(t, TypePattern):
            yield t


def _collect_tvars(e: Expr) -> Dict[str, List[TVar]]:
    """All TVar occurrences in a pattern, grouped by name."""
    out: Dict[str, List[TVar]] = {}

    def visit(tp) -> None:
        if isinstance(tp, TVar):
            out.setdefault(tp.name, []).append(tp)
        elif isinstance(tp, (TWiden, TNarrow, TWithSign)):
            visit(tp.inner)

    for tp in _iter_type_patterns(e):
        visit(tp)
    return out


def _collect_wilds(e: Expr) -> Tuple[Dict[str, Wild], Dict[str, ConstWild]]:
    wilds: Dict[str, Wild] = {}
    consts: Dict[str, ConstWild] = {}
    for node in e.walk():
        if isinstance(node, ConstWild):
            consts.setdefault(node.name, node)
        elif isinstance(node, Wild):
            wilds.setdefault(node.name, node)
    return wilds, consts


def _type_assignments(
    tvars: Dict[str, List[TVar]], limit: int
) -> Iterable[Dict[str, ScalarType]]:
    names = sorted(tvars)
    domains = []
    for n in names:
        dom = [
            t
            for t in ARITH_TYPES
            if all(tv.admits(t) for tv in tvars[n])
        ]
        domains.append(dom)
    count = 0
    for combo in itertools.product(*domains):
        if count >= limit:
            return
        count += 1
        yield dict(zip(names, combo))


def _resolvable(tp, tenv) -> Optional[ScalarType]:
    try:
        return resolve_type(tp, tenv)
    except (KeyError, ValueError):
        return None


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _random_top_up(
    vals: set, lo: int, hi: int, n: int, rng: random.Random
) -> None:
    """Add ``n`` random samples in [lo, hi] that are *new* to ``vals``.

    A plain ``rng.randint`` loop silently collides with the boundary
    values already present (especially for 8-bit types), shrinking the
    sample set and duplicating tuples downstream; draw fresh values with
    a bounded number of attempts instead.
    """
    target = len(vals) + min(n, hi - lo + 1 - len(vals))
    attempts = 0
    while len(vals) < target and attempts < 16 * n:
        vals.add(rng.randint(lo, hi))
        attempts += 1


def _value_samples(
    t: ScalarType, rng: random.Random, n_random: int, bounds: Interval
) -> List[int]:
    lo = max(t.min_value, bounds.lo)
    hi = min(t.max_value, bounds.hi)
    if lo > hi:
        lo, hi = t.min_value, t.max_value
    picks = {lo, hi, max(lo, min(hi, 0)), max(lo, min(hi, 1))}
    if t.signed:
        picks.add(max(lo, min(hi, -1)))
    picks.update(
        max(lo, min(hi, v))
        for v in (lo + 1, hi - 1, hi // 2)
    )
    _random_top_up(picks, lo, hi, n_random, rng)
    return sorted(picks)


def _const_samples(t: ScalarType, rng: random.Random) -> List[int]:
    vals = {0, 1, 2, t.max_value, t.min_value}
    vals.update(1 << k for k in range(0, t.bits) if t.contains(1 << k))
    vals.update((1 << k) - 1 for k in (4, t.bits - 1) if t.contains((1 << k) - 1))
    if t.signed:
        vals.update({-1, -2})
    # Boundary values of every *other* type that fit: clamp-recognition
    # predicates need pairs like (lo=-128, hi=127) inside a wider type.
    for u in ARITH_TYPES:
        for b in (u.min_value, u.max_value):
            if t.contains(b):
                vals.add(b)
    vals = {v for v in vals if t.contains(v)}
    _random_top_up(vals, t.min_value, t.max_value, 4, rng)
    return sorted(vals)


# ----------------------------------------------------------------------
# Core equivalence check
# ----------------------------------------------------------------------
#: Most lanes one evaluation of queued checks carries (a single check
#: larger than this is evaluated alone).  On the ``verify-rules``
#: benchmark, against one call per check: 256 lanes gave x1.20
#: ``ops_per_s`` at +0.6% ``peak_rss_mb``, 1,024 lanes x1.30 at +1.5%,
#: and 4,096 or 8,192 lanes no more speed at +3.5%.
LANE_BUDGET = 1024


def verify_equivalence(
    lhs: Expr,
    rhs: Expr,
    rng: Optional[random.Random] = None,
    var_bounds: Optional[Dict[str, Interval]] = None,
    max_points: int = 4096,
    n_random: int = 6,
    bit_exact_type: bool = True,
    backend: Optional[str] = None,
) -> Optional[dict]:
    """Check two *concrete* expressions agree on a boundary-biased grid.

    Returns None if no disagreement is found, else a counterexample dict.
    The two sides must have equal types unless ``bit_exact_type`` is False
    (then equal widths and equal wrapped bit patterns are accepted).

    The entire cross product of sample tuples is packed into lanes and
    each side is evaluated with one call to its compiled program under
    the selected evaluation ``backend`` (closure/numpy/auto; None means
    the process default — grids this wide are exactly where the ndarray
    backend pays off); a mismatching lane index maps back to the
    offending tuple for the counterexample report.  This is the
    one-check case of :class:`_Checks`, through which :func:`verify_rule`
    evaluates a type assignment's constant choices together.

    Raises ValueError if ``max_points`` is below 1: no grid that small
    exists, and thinning the sample sets toward it would never end.
    """
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    checks = _Checks(lhs, rhs, (), backend, bit_exact_type)
    failure = checks.add(
        None, {}, rng if rng is not None else random.Random(0),
        var_bounds, max_points, n_random,
    ) or checks.flush()
    return None if failure is None else failure[1]


class _Checks:
    """Equivalence checks of one pair of expressions, evaluated together.

    A check is a sampled grid with the held variables at one value on
    each of its lanes.  :meth:`add` draws a check's grid and queues it;
    the queue is evaluated, each side with one call of its compiled
    program over the queued grids laid end to end, when the next check
    would take it past :data:`LANE_BUDGET` lanes and on :meth:`flush`.
    Failures come back in queue order, as ``(tag, counterexample)`` of
    the first failing check and its first failing lane, so a caller that
    queues its checks in order gets the report a call per check would
    give.  A queue that raises :class:`EvalError` is evaluated again one
    check at a time, so the error is reported at the first check that
    raises it alone.  A pair whose types differ queues nothing: each
    check reports the mismatch at once.
    """

    def __init__(self, lhs: Expr, rhs: Expr, held: Iterable[str],
                 backend: Optional[str], bit_exact_type: bool = True) -> None:
        tl, tr = lhs.type, rhs.type
        self.mismatch: Optional[str] = None
        if bit_exact_type and tl != tr:
            self.mismatch = f"type mismatch: {tl} vs {tr}"
        elif tl.bits != tr.bits:
            self.mismatch = f"width mismatch: {tl} vs {tr}"
        self.lhs, self.rhs, self.backend = lhs, rhs, backend
        self.variables = sorted(
            {n for n in lhs.walk() if isinstance(n, Var)}
            | {n for n in rhs.walk() if isinstance(n, Var)},
            key=lambda v: v.name,
        )
        held = set(held)
        self.sampled = [v for v in self.variables if v.name not in held]
        self.queue: List[Tuple[object, List[tuple], Mapping[str, int]]] = []
        self.lanes = 0

    def add(self, tag: object, held: Mapping[str, int], rng: random.Random,
            var_bounds: Optional[Dict[str, Interval]], max_points: int,
            n_random: int = 6) -> Optional[Tuple[object, dict]]:
        """Queue a check with each ``held`` variable at its value on
        every lane (not sampled, so it draws nothing from ``rng``, and
        left out of a counterexample's ``env``); return the first
        failure of the checks this evaluated, if any."""
        if self.mismatch is not None:
            return tag, {"reason": self.mismatch}
        var_bounds = var_bounds or {}
        sample_sets = [
            _value_samples(
                v.type,
                rng,
                n_random,
                var_bounds.get(v.name, Interval.of_type(v.type)),
            )
            for v in self.sampled
        ]
        # Cap the cross product: thin out the per-variable sets if needed.
        while sample_sets and _product_size(sample_sets) > max_points:
            largest = max(range(len(sample_sets)),
                          key=lambda i: len(sample_sets[i]))
            sample_sets[largest] = sample_sets[largest][::2]
        grid = list(itertools.product(*sample_sets))
        failure = None
        if self.queue and self.lanes + len(grid) > LANE_BUDGET:
            failure = self.flush()
        self.queue.append((tag, grid, held))
        self.lanes += len(grid)
        return failure

    def flush(self) -> Optional[Tuple[object, dict]]:
        """Evaluate the queued checks; return the first failure."""
        queue, self.queue, self.lanes = self.queue, [], 0
        if not queue:
            return None
        try:
            return self._evaluate(queue)
        except EvalError as exc:
            if len(queue) == 1:
                return queue[0][0], {"reason": f"evaluation error: {exc}"}
        for check in queue:
            self.queue, self.lanes = [check], len(check[1])
            failure = self.flush()
            if failure is not None:
                return failure
        return None

    def _evaluate(self, queue) -> Optional[Tuple[object, dict]]:
        points = [point for _, grid, _ in queue for point in grid]
        lanes = len(points)
        env = {v.name: [point[i] for point in points]
               for i, v in enumerate(self.sampled)}
        for name in queue[0][2]:
            column = env[name] = []
            for _, grid, held in queue:
                column += [held[name]] * len(grid)
        env = maybe_prepare_env(env, self.variables, lanes, self.backend)
        lv = compile_for_backend(self.lhs, self.backend)(env, lanes)
        rv = compile_for_backend(self.rhs, self.backend)(env, lanes)
        tl = self.lhs.type
        if tl != self.rhs.type:
            mask = tl.mask
            rv = [tl.wrap(v & mask) for v in rv]
        if lv == rv:
            return None
        lane, a, b = next((i, a, b) for i, (a, b) in enumerate(zip(lv, rv))
                          if a != b)
        for tag, grid, _ in queue:
            if lane < len(grid):
                break
            lane -= len(grid)
        names = [v.name for v in self.sampled]
        return tag, {"env": dict(zip(names, grid[lane])), "lhs": a, "rhs": b}


def _product_size(sets: Sequence[Sequence[int]]) -> int:
    n = 1
    for s in sets:
        n *= len(s)
    return n


# ----------------------------------------------------------------------
# Rule verification
# ----------------------------------------------------------------------
def verify_rule(
    rule: Rule,
    seed: int = 0,
    max_type_combos: int = 32,
    max_const_samples: int = 12,
    max_points: int = 2048,
    forced_consts: Optional[Dict[str, int]] = None,
    backend: Optional[str] = None,
) -> VerificationReport:
    """Verify ``rule`` over every admissible type assignment.

    ``forced_consts`` pins the constant wildcards to specific values
    (used by the §4.3 generalizer's binary search over constant ranges).
    ``backend`` selects the evaluation backend for the sample grids
    (None = process default).

    Raises ValueError if ``max_type_combos``, ``max_const_samples`` or
    ``max_points`` is below 1: the first would check no type assignment
    and fail a sound rule, the second would keep all but the last
    constant choices in place of the first few, and the third asks for
    a grid that does not exist (see :func:`verify_equivalence`).
    """
    for name, budget in (("max_type_combos", max_type_combos),
                         ("max_const_samples", max_const_samples),
                         ("max_points", max_points)):
        if budget < 1:
            raise ValueError(f"{name} must be at least 1, got {budget}")
    rng = random.Random(seed)
    tvars = _collect_tvars(rule.lhs)
    wilds, cwilds = _collect_wilds(rule.lhs)
    templates = _Templates(rule, cwilds)

    combos = 0
    points = 0
    any_predicate_pass = False

    def failed(tag: Tuple[int, Dict[str, int]],
               cex: dict) -> VerificationReport:
        """The report of a failing check, tagged with its point number
        and constant choice, at the current type assignment."""
        at, consts = tag
        cex["tenv"] = {k: str(v) for k, v in tenv.items()}
        cex["consts"] = consts
        return VerificationReport(rule.name, False, combos, at,
                                  counterexample=cex)

    for tenv in _type_assignments(tvars, max_type_combos):
        # Resolve the types of all wildcards; skip assignments that make
        # some pattern type unresolvable (e.g. narrow of an 8-bit type).
        wild_types = {}
        ok = True
        for name, w in wilds.items():
            t = _resolvable(w.type_pattern, tenv)
            if t is None or t.is_bool:
                ok = False
                break
            wild_types[name] = t
        if not ok:
            continue
        cwild_types = {}
        for name, w in cwilds.items():
            t = _resolvable(w.type_pattern, tenv)
            if t is None:
                ok = False
                break
            cwild_types[name] = t
        if not ok:
            continue

        env = {name: Var(t, name) for name, t in wild_types.items()}

        # Predicated rules may need provable bounds on inputs; offer a
        # restricted range so bounds queries can succeed, plus the full
        # range for unpredicated rules.
        hint_sets = [None, _restricted_hints(wild_types)]

        if forced_consts is not None:
            wanted = {
                n: forced_consts[n]
                for n in cwild_types
                if n in forced_consts
            }
            if any(
                not cwild_types[n].contains(v) for n, v in wanted.items()
            ):
                continue  # not representable at this type assignment
            const_choices = [wanted] if len(wanted) == len(cwild_types) else []
        else:
            const_choices = _enumerate_const_choices(
                cwild_types, rng, max_const_samples
            )
        # An interval is a function of the node and the hints alone, so
        # one context per hint level serves every constant choice.
        contexts = [BoundsContext(BoundsAnalyzer(h)) for h in hint_sets]
        const_nodes: Dict[Tuple[str, int], Const] = {}
        # both sides as templates, built on the first choice a predicate
        # passes; () when either side does not build
        sides: Optional[Tuple[Expr, ...]] = None
        checks: Optional[_Checks] = None  # the templates' queued checks
        for const_env in const_choices:
            full_env = dict(env)
            for name, v in const_env.items():
                node = const_nodes.get((name, v))
                if node is None:
                    node = const_nodes[name, v] = Const(cwild_types[name], v)
                full_env[name] = node
            m = _LazyRootMatch(rule.lhs, full_env, dict(tenv), dict(const_env))
            for hints, ctx in zip(hint_sets, contexts):
                try:
                    if (rule.predicate is not None
                            and not rule.predicate(m, ctx)):
                        continue
                    if sides is None:
                        sides = templates.build(env, tenv, cwild_types)
                    held = templates.held(m) if sides else None
                    if held is None:
                        # the queued choices come first in the report
                        failure = checks.flush() if checks else None
                        if failure is not None:
                            return failed(*failure)
                        lhs_c = m.root
                except _LhsBuildFailed:
                    break  # ill-typed combination; skip this const set
                any_predicate_pass = True
                if held is None:
                    try:
                        rhs_c = instantiate(rule.rhs, m)
                    except Exception as exc:
                        return failed((points, const_env),
                                      {"reason": f"rhs build failed: {exc}"})
                    points += 1
                    cex = verify_equivalence(
                        lhs_c, rhs_c, rng=rng, var_bounds=hints,
                        max_points=max_points, backend=backend,
                    )
                    failure = None if cex is None else ((points, const_env),
                                                        cex)
                else:
                    if checks is None:
                        checks = _Checks(*sides, held, backend)
                    points += 1
                    failure = checks.add((points, const_env), held, rng,
                                         hints, max_points)
                if failure is not None:
                    return failed(*failure)
                break  # verified with this hint level; next const set
        failure = checks.flush() if checks else None
        if failure is not None:
            return failed(*failure)
        combos += 1

    notes = []
    if combos == 0:
        return VerificationReport(
            rule.name, False, 0, 0,
            counterexample={"reason": "no admissible type assignment"},
        )
    if not any_predicate_pass and rule.predicate is not None:
        notes.append("predicate never satisfied by sampled constants")
        return VerificationReport(
            rule.name, False, combos, points,
            counterexample={"reason": notes[0]},
        )
    return VerificationReport(rule.name, True, combos, points, notes=notes)


class _Templates:
    """A rule's two sides with its constants as variables.

    Each constant wildcard, and each computed constant (a ``PConst``
    whose value is callable), becomes a ``Var`` of its resolved type,
    named so that no wildcard of the rule on either side shares the
    name.  :meth:`build` instantiates both sides once per type
    assignment, and every constant choice of that assignment is checked
    by holding the variables at its values (:meth:`held`), so the
    choices share one compiled program per side.  A ``Const`` leaf and
    a ``Var`` of its type holding its value on every lane evaluate
    alike.  Literal ``PConst`` values stay ``Const``.
    """

    def __init__(self, rule: Rule, cwilds: Dict[str, ConstWild]) -> None:
        nodes = [*rule.lhs.walk(), *rule.rhs.walk()]
        taken = {n.name for n in nodes
                 if isinstance(n, (Wild, ConstWild, Var))}
        fresh = (n for n in map("${}".format, itertools.count())
                 if n not in taken)
        self.const_vars = {name: next(fresh) for name in sorted(cwilds)}
        self.computed: Dict[PConst, str] = {}
        for n in nodes:
            if (isinstance(n, PConst) and callable(n.value)
                    and n not in self.computed):
                self.computed[n] = next(fresh)
        self.lhs, self.rhs = (_computed_as_wilds(side, self.computed)
                              for side in (rule.lhs, rule.rhs))

    def build(self, env: Dict[str, Expr], tenv: Dict[str, ScalarType],
              cwild_types: Dict[str, ScalarType]) -> Tuple[Expr, ...]:
        """Both sides at one type assignment, or () if either does not
        build."""
        env = dict(env)
        try:
            for name, var in self.const_vars.items():
                env[name] = Var(cwild_types[name], var)
            for node, var in self.computed.items():
                env[var] = Var(resolve_type(node.type_pattern, tenv), var)
            m = Match(env=env, tenv=dict(tenv))
            return instantiate(self.lhs, m), instantiate(self.rhs, m)
        except Exception:  # the per-choice path skips or reports it
            return ()

    def held(self, m: Match) -> Optional[Dict[str, int]]:
        """The variables' values at the constant choice of ``m``, each
        computed constant evaluated as :func:`instantiate` does, or None
        if one raises."""
        held = {var: m.env[name].value
                for name, var in self.const_vars.items()}
        try:
            for node, var in self.computed.items():
                held[var] = instantiate(node, m).value
        except Exception:  # the per-choice path reports it
            return None
        return held


def _computed_as_wilds(p: Expr, names: Dict[PConst, str]) -> Expr:
    """``p`` with each computed constant in ``names`` replaced by a
    wildcard of its variable name."""
    if isinstance(p, PConst) and p in names:
        return Wild(names[p], p.type_pattern)
    if not names or not p.children:
        return p
    return p.with_children([_computed_as_wilds(c, names)
                            for c in p.children])


class _LhsBuildFailed(Exception):
    """The rule's left-hand side does not instantiate for a type and
    constant choice."""


class _LazyRootMatch(Match):
    """The match a rule's predicate sees during verification.

    ``root`` is the rule's left-hand side, instantiated on first read and
    kept: a predicate that rejects a constant choice from ``consts``,
    ``tenv`` or ``env`` costs no tree build, and both hint levels share
    one build.  A failed build raises :class:`_LhsBuildFailed`.
    """

    def __init__(self, lhs: Expr, env: Dict[str, Expr],
                 tenv: Dict[str, ScalarType], consts: Dict[str, int]) -> None:
        self._lhs = lhs
        super().__init__(env=env, tenv=tenv, consts=consts)

    @property
    def root(self) -> Expr:
        if self._root is None:
            try:
                self._root = instantiate(self._lhs, self)
            except Exception as exc:
                raise _LhsBuildFailed from exc
        return self._root

    @root.setter
    def root(self, value: Optional[Expr]) -> None:
        self._root = value


def _restricted_hints(wild_types: Dict[str, ScalarType]) -> Dict[str, Interval]:
    """Quarter-range hints so overflow-freedom predicates can be proven."""
    hints = {}
    for name, t in wild_types.items():
        span = (t.max_value - t.min_value) // 4
        lo = 0 if not t.signed else -(span // 2)
        hints[name] = Interval(lo, lo + span)
    return hints


def _enumerate_const_choices(
    cwild_types: Dict[str, ScalarType],
    rng: random.Random,
    cap: int,
) -> List[Dict[str, int]]:
    if not cwild_types:
        return [{}]
    names = sorted(cwild_types)
    domains = [_const_samples(cwild_types[n], rng) for n in names]
    all_choices = list(itertools.product(*domains))
    # Predicate checks are cheap, so keep the whole cross product when it
    # is small (predicates like the clamp-bounds one are satisfied by very
    # few aligned pairs); otherwise mix a deterministic head with a random
    # sample of the rest.
    if len(all_choices) > 512:
        head = all_choices[: cap * 8]
        tail = all_choices[cap * 8:]
        rng.shuffle(tail)
        all_choices = head + tail[: 512 - len(head)]
    return [dict(zip(names, c)) for c in all_choices]
