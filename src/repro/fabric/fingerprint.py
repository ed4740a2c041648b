"""Content fingerprints for the execution fabric's result cache.

A cache entry is only reusable when *every* input that influenced the
result is unchanged.  For the matrix-shaped jobs in this repo those
inputs are:

* the workload expression (fingerprinted through its canonical
  s-expression form, :func:`repro.trs.serialize.dump_expr`);
* the target (by name — a target's rule set is fingerprinted separately);
* the rulebase (every rule's name, source, both sides, and predicate);
* the repro version (bumping ``repro.__version__`` invalidates the world).

Predicates need care: hand-written predicates are Python closures that
the s-expression serializer deliberately refuses to round-trip (they
dump as ``:opaque``), so serializing the rule text alone would let two
*different* predicates collide.  :func:`predicate_fingerprint` therefore
hashes the predicate's bytecode, constants, names and closure-cell
contents — editing a predicate's logic changes its fingerprint even when
the rule text is unchanged.

All functions return hex digests (sha256), so any component change
yields a different cache key; invalidation is automatic and there is no
time-based expiry to tune.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..ir.expr import Expr
from ..trs.rule import Rule
from ..trs.serialize import SerializationError, dump_expr

__all__ = [
    "digest",
    "expr_fingerprint",
    "predicate_fingerprint",
    "rule_fingerprint",
    "rulebase_fingerprint",
    "pipeline_rules_fingerprint",
    "eval_backend_fingerprint",
    "repro_version",
]


def digest(*parts: str) -> str:
    """sha256 over the parts with an unambiguous separator."""
    h = hashlib.sha256()
    for p in parts:
        b = p.encode("utf-8", "backslashreplace")
        h.update(str(len(b)).encode("ascii"))
        h.update(b":")
        h.update(b)
    return h.hexdigest()


def repro_version() -> str:
    """The package version — part of every cache key."""
    from .. import __version__

    return __version__


def expr_fingerprint(e: Expr) -> str:
    """Canonical text of an expression (or pattern) tree.

    Uses the s-expression serializer, which spells out every operator and
    type; trees containing nodes the serializer does not cover (lowered
    target instructions, computed constants outside the relation
    language) fall back to ``repr`` — also structural for this IR, but
    lossy for :class:`~repro.trs.pattern.PConst` value functions (they
    all print ``<computed-const>``), so those are hashed by bytecode
    alongside.
    """
    try:
        return digest("sexp", dump_expr(e))
    except SerializationError:
        from ..trs.pattern import PConst

        parts = ["repr", repr(e), str(e.type)]
        for node in e.walk():
            if isinstance(node, PConst) and callable(node.value):
                parts.append(_callable_fingerprint(node.value))
        return digest(*parts)


def _callable_fingerprint(fn, _depth: int = 0) -> str:
    """Hash a callable's bytecode, constants, names and closure cells.

    ``repr`` of code objects and functions embeds memory addresses,
    which would make fingerprints unstable across processes (and defeat
    the on-disk cache); nested code objects and closed-over functions
    are therefore hashed structurally instead of via ``repr``.
    """
    parts = ["code"]
    code = getattr(fn, "__code__", None)
    if code is not None:
        consts = tuple(
            c.co_code.hex() if hasattr(c, "co_code") else repr(c)
            for c in code.co_consts
        )
        parts += [
            code.co_code.hex(),
            repr(consts),
            repr(code.co_names),
            repr(code.co_varnames),
        ]
    else:  # pragma: no cover - exotic callables (partial, C functions)
        parts.append(repr(fn))
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            contents = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            parts.append("<empty>")
            continue
        if callable(contents) and _depth < 4:
            parts.append(_callable_fingerprint(contents, _depth + 1))
        else:
            parts.append(repr(contents))
    return digest(*parts)


def predicate_fingerprint(predicate) -> str:
    """Fingerprint a rule predicate, opaque closures included.

    Serializable range predicates hash their declarative content; every
    other callable hashes bytecode + constants + names + closure cells,
    so editing predicate logic invalidates cached verdicts.
    """
    if predicate is None:
        return digest("no-predicate")
    ranges = getattr(predicate, "_serializable_ranges", None)
    if ranges is not None:
        pow2 = getattr(predicate, "_serializable_pow2", ()) or ()
        return digest(
            "ranges",
            repr(sorted(ranges.items())),
            repr(sorted(pow2)),
        )
    return _callable_fingerprint(predicate)


def eval_backend_fingerprint(backend: Optional[str] = None) -> str:
    """Fingerprint of the evaluation backend a job will run under.

    The backend is a semantic input for every job that *evaluates*
    expressions (verify-rule, runtime, ablation, synthesize-lift): the
    backends are property-tested lane-exact, but a backend bug would
    otherwise poison the cache for every backend at once, and numpy
    results additionally depend on the installed NumPy build.  ``None``
    resolves through :func:`repro.interp.effective_backend`, and any
    numpy-capable backend mixes in ``numpy.__version__``.
    """
    from ..interp import effective_backend

    name = effective_backend(backend)
    if name == "closure":
        return digest("eval-backend", "closure")
    import numpy

    return digest("eval-backend", name, numpy.__version__)


#: per-object fingerprint memo.  Rules are immutable once registered
#: (``RewriteEngine`` freezes its rule list for the same reason), so one
#: hash per object is sound; the memo keeps a strong reference so an id
#: can never be reused by a different rule.
_RULE_FP_MEMO: Dict[int, Tuple[Rule, str]] = {}


def rule_fingerprint(rule: Rule) -> str:
    """Everything that can change a rule's meaning."""
    hit = _RULE_FP_MEMO.get(id(rule))
    if hit is not None and hit[0] is rule:
        return hit[1]
    fp = digest(
        rule.name,
        rule.source,
        expr_fingerprint(rule.lhs),
        expr_fingerprint(rule.rhs),
        predicate_fingerprint(rule.predicate),
    )
    _RULE_FP_MEMO[id(rule)] = (rule, fp)
    return fp


def rulebase_fingerprint(rules: Iterable[Rule]) -> str:
    """Order-sensitive fingerprint of a whole rule list.

    Order matters: the rewrite engine applies rules greedily in priority
    order, so a reordering can change which rule fires.
    """
    return digest("rulebase", *(rule_fingerprint(r) for r in rules))


def pipeline_rules_fingerprint(
    target_name: Optional[str],
    use_synthesized: bool = True,
    exclude_sources: Sequence[str] = (),
    lift_strategy: str = "greedy",
) -> str:
    """Fingerprint of every rule a pitchfork compile for ``target_name``
    can possibly apply: the lifting rules plus the target's lowering
    rules, filtered the way the pipeline filters them.

    ``target_name=None`` fingerprints the lifting rules only (for jobs
    that never lower, e.g. lift-rule verification).

    ``lift_strategy`` is a semantic input: greedy and e-graph lifts can
    produce different programs from identical rules, so a cached greedy
    result must never be served to an e-graph request (or vice versa).
    """
    from ..lifting import HAND_RULES, SYNTHESIZED_RULES

    rules = list(HAND_RULES)
    if use_synthesized:
        rules += list(SYNTHESIZED_RULES)
    if target_name is not None:
        from ..targets import by_name

        target = by_name(target_name)
        lowering = [
            r
            for r in target.lowering_rules
            if use_synthesized or not r.is_synthesized
        ]
        rules += lowering
    excluded = frozenset(exclude_sources)
    if excluded:
        rules = [r for r in rules if not r.excluded_by(excluded)]
    return digest(
        "pipeline",
        str(target_name),
        str(bool(use_synthesized)),
        repr(sorted(excluded)),
        str(lift_strategy),
        rulebase_fingerprint(rules),
    )
