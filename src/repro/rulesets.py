"""The rule registry: every shipped rule set, and the rules each compiler
runs.

Figure 7 drops the synthesized rules and §5's leave-one-out drops each
benchmark's own rules; this module makes that choice once.  The compilers
build their engines from :func:`pitchfork`, :func:`llvm` and :func:`rake`,
the fabric's cache keys hash the same lists and ``repro coverage``
tabulates them; ``repro rules``, ``lint`` and rule verification read
:func:`rule_sets`.  The LLVM patterns are built once per target, so a
compiler and a cache key hold the same rule objects.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional, Tuple

from .lifting.rules import HAND_RULES
from .lifting.synthesized import SYNTHESIZED_RULES
from .targets import ALL_TARGETS, Target
from .trs.rule import Rule

__all__ = [
    "FlowRules", "RuleSet", "llvm", "pitchfork", "rake", "rule_set",
    "rule_sets",
]


class RuleSet(NamedTuple):
    """One shipped rule set: wire name (the ``verify-rule`` ruleset),
    display label, phase (``lift`` or ``lower``) and rules."""

    name: str
    label: str
    phase: str
    rules: Tuple[Rule, ...]


class FlowRules(NamedTuple):
    """The rules one compiler runs, in priority order; ``moves`` are
    Rake's search-only rules."""

    lift: Tuple[Rule, ...]
    lower: Tuple[Rule, ...]
    moves: Tuple[Rule, ...] = ()


@functools.lru_cache(maxsize=None)
def rule_sets() -> Tuple[RuleSet, ...]:
    """Every shipped rule set: the two lifting sets, then each target's
    lowering set."""
    return (
        RuleSet("lifting-hand", "lifting (hand)", "lift", tuple(HAND_RULES)),
        RuleSet("lifting-synth", "lifting (synthesized)", "lift",
                tuple(SYNTHESIZED_RULES)),
        *(RuleSet(t.name, f"lowering ({t.name})", "lower",
                  tuple(t.lowering_rules)) for t in ALL_TARGETS.values()),
    )


def rule_set(name: str) -> RuleSet:
    """The shipped rule set whose wire name is ``name``."""
    for rs in rule_sets():
        if rs.name == name:
            return rs
    raise ValueError(f"unknown rule set {name!r}; available: "
                     f"{[rs.name for rs in rule_sets()]}")


def pitchfork(
    target: Optional[Target] = None,
    use_synthesized: bool = True,
    exclude_sources: Iterable[str] = (),
) -> FlowRules:
    """PITCHFORK's lift rules and ``target``'s lowering rules (none
    without a target): hand-written only unless ``use_synthesized``
    (Figure 7), less every rule whose sources all lie in
    ``exclude_sources`` (§5's leave-one-out)."""
    lift = rule_set("lifting-hand").rules
    if use_synthesized:
        lift += rule_set("lifting-synth").rules
    lower = () if target is None else tuple(
        r for r in target.lowering_rules
        if use_synthesized or not r.is_synthesized
    )
    excluded = frozenset(exclude_sources)
    if excluded:
        lift = tuple(r for r in lift if not r.excluded_by(excluded))
        lower = tuple(r for r in lower if not r.excluded_by(excluded))
    return FlowRules(lift, lower)


@functools.lru_cache(maxsize=None)
def _llvm_patterns(target_name: str) -> Tuple[Tuple[Rule, ...], ...]:
    """One target's LLVM ISel patterns and §5.1 q31 sequence, built once
    (each build makes fresh rule objects)."""
    from .machine.llvm_baseline import _llvm_rules_for, _q31_sequence_rules

    return (tuple(_llvm_rules_for(target_name)),
            tuple(_q31_sequence_rules(target_name)))


def llvm(target: Target, q31: bool = False) -> FlowRules:
    """The LLVM baseline's ISel patterns; with ``q31`` (the §5.1 retry)
    also the q31 sequence, and the hand lift rules that recognize the
    q31 requantize."""
    patterns, sequence = _llvm_patterns(target.name)
    if q31:
        return FlowRules(rule_set("lifting-hand").rules, patterns + sequence)
    return FlowRules((), patterns)


def rake(target: Target) -> FlowRules:
    """Rake's rules: PITCHFORK's full sets plus ``target``'s Rake-only
    search moves."""
    full = pitchfork(target)
    return FlowRules(full.lift, full.lower, tuple(target.rake_extra_rules))
