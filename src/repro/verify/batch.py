"""Batch rule verification on the execution fabric.

``python -m repro rules --verify`` runs on :mod:`repro.fabric`: one
``verify-rule`` task per rule, so the batch can fan out over the
session's worker pool and cache verdicts content-addressed by each
rule's fingerprint — re-verifying an unchanged rulebase is pure cache
hits.

Determinism contract: results come back in rule order regardless of
``jobs``, so the printed report is byte-identical between serial and
parallel runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..fabric import TaskSpec
from ..fabric.jobs import VerifyParams
from ..rulesets import rule_set
from ..session import CompilerSession
from .rule_verifier import VerificationReport

__all__ = ["batch_verify_rules"]


def batch_verify_rules(
    ruleset_labels: Sequence[str],
    session: Optional[CompilerSession] = None,
) -> List[Tuple[str, VerificationReport]]:
    """Verify every rule of the named rulesets; ordered, fail-safe.

    Returns ``(ruleset_label, report)`` pairs in registry order.  A task
    failure (worker crash, resolution error) becomes a failing report
    whose counterexample names the infrastructure error, so a sweep
    never silently drops a rule.

    Every task runs on the default ``VerifyParams``: the budgets of
    ``repro rules --verify`` on the process-default evaluation backend,
    which is part of the cache key, so closure- and numpy-produced
    verdicts never share cache entries.  The batch runs in the
    ``session``'s context (cache, sinks, worker pool).
    """
    params = VerifyParams()
    specs: List[TaskSpec] = []
    for label in ruleset_labels:
        for rule in rule_set(label).rules:
            specs.append(
                TaskSpec(
                    "verify-rule",
                    key=(label, rule.name),
                    params=params,
                )
            )
    results = (session or CompilerSession()).run_tasks(specs)
    out: List[Tuple[str, VerificationReport]] = []
    for res in results:
        label, rule_name = res.spec.key
        if res.ok:
            report = VerificationReport.from_dict(res.value)
        else:
            report = VerificationReport(
                rule_name=rule_name,
                ok=False,
                checked_combos=0,
                checked_points=0,
                counterexample={"reason": f"task failed: {res.error}"},
            )
        out.append((label, report))
    return out
