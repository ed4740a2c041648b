"""Rule-coverage report: which rewrite rules actually fire, and where.

Compiles the full benchmark suite (16 workloads × the paper's 3 targets
by default) with metrics-only observation and reports the fire count of
every registered lifting and lowering rule.  Rules that never fire
anywhere are *dead*: for synthesized rules that is expected churn, but a
dead hand-written rule is either a missed pattern in the suite or a rule
subsumed by a cheaper one — exactly the coverage/cost feedback a rule-
synthesis loop (Daly et al.) consumes.  ``python -m repro coverage``
prints this report and exits non-zero iff a hand-written rule is dead.

The sweep runs on the execution fabric (:mod:`repro.fabric`): each
(workload, target) cell is one task, so the whole grid can fan out over
the session's worker pool and cache per-cell fire tables keyed by the
cell's expression + rulebase fingerprint.  Fire counts are summed per
rule, so the report is byte-identical whatever ``jobs`` is and whether
cells ran or came from the cache.  The compiles' other telemetry
reaches the session's metrics like any other sweep's.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..fabric.jobs import CellParams, cell_specs
from ..session import CompilerSession
from ..targets import PAPER_TARGETS, Target

__all__ = ["CoverageReport", "RuleCoverage", "run_coverage"]


@dataclass(frozen=True)
class RuleCoverage:
    """Fire statistics for one registered rule across the sweep."""

    name: str
    source: str
    phase: str  # 'lift' | 'lower'
    ruleset: str  # 'lifting' | a target name
    fires: int

    @property
    def is_hand(self) -> bool:
        """True for manually-written rules (``source == "hand"``)."""
        return self.source == "hand"

    @property
    def is_dead(self) -> bool:
        """True if the rule never fired anywhere in the sweep."""
        return self.fires == 0


@dataclass
class CoverageReport:
    """Per-rule fire counts for one suite sweep."""

    rows: List[RuleCoverage] = field(default_factory=list)
    workloads: List[str] = field(default_factory=list)
    targets: List[str] = field(default_factory=list)
    #: "(workload, target): error" for any cell that failed to compile
    failures: List[str] = field(default_factory=list)

    @property
    def dead(self) -> List[RuleCoverage]:
        """Every rule that never fired."""
        return [r for r in self.rows if r.is_dead]

    @property
    def dead_hand_rules(self) -> List[RuleCoverage]:
        """Dead *hand-written* rules — the CI-gating subset."""
        return [r for r in self.rows if r.is_dead and r.is_hand]

    @property
    def ok(self) -> bool:
        """True when no hand-written rule is dead and every cell ran."""
        return not self.dead_hand_rules and not self.failures

    def format_table(self, verbose: bool = False) -> str:
        """Human-readable coverage report.

        Default output lists per-ruleset totals plus every dead rule;
        ``verbose`` lists the fire count of every rule.
        """
        lines = [
            f"rule coverage over {len(self.workloads)} workloads x "
            f"{len(self.targets)} targets "
            f"({', '.join(self.targets)})"
        ]
        by_set: Dict[str, List[RuleCoverage]] = {}
        for r in self.rows:
            by_set.setdefault(r.ruleset, []).append(r)
        for ruleset, rows in by_set.items():
            live = sum(1 for r in rows if not r.is_dead)
            fires = sum(r.fires for r in rows)
            lines.append(
                f"-- {ruleset}: {live}/{len(rows)} rules fired, "
                f"{fires} total applications"
            )
            shown = rows if verbose else []
            for r in sorted(shown, key=lambda r: -r.fires):
                tag = "" if r.is_hand else f"  [{r.source}]"
                lines.append(f"   {r.name:<44} {r.fires:>6}{tag}")
        for failure in self.failures:
            lines.append(f"CELL FAILED: {failure}")
        dead = self.dead
        if dead:
            lines.append(
                f"dead rules ({len(dead)}; synthesis-feedback candidates):"
            )
            for r in dead:
                kind = "HAND-WRITTEN" if r.is_hand else "synthesized"
                lines.append(
                    f"   {r.name:<44} [{r.ruleset}] {kind} ({r.source})"
                )
        else:
            lines.append("dead rules: none")
        hand_dead = self.dead_hand_rules
        lines.append(
            "coverage: OK (every hand-written rule fires)"
            if not hand_dead
            else f"coverage: FAIL ({len(hand_dead)} dead hand-written "
            f"rule{'s' if len(hand_dead) != 1 else ''})"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready snapshot (rules + sweep parameters)."""
        return {
            "workloads": self.workloads,
            "targets": self.targets,
            "rules": [
                {
                    "name": r.name,
                    "source": r.source,
                    "phase": r.phase,
                    "ruleset": r.ruleset,
                    "fires": r.fires,
                }
                for r in self.rows
            ],
            "dead": [r.name for r in self.dead],
            "dead_hand_rules": [r.name for r in self.dead_hand_rules],
            "failures": list(self.failures),
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        """:meth:`to_dict`, serialized."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_coverage(
    workload_names: Optional[Sequence[str]] = None,
    targets: Optional[Sequence[Target]] = None,
    lift_strategy: str = CellParams.lift_strategy,
    session: Optional[CompilerSession] = None,
) -> CoverageReport:
    """Compile the suite with rule telemetry on; tabulate per-rule fires.

    Each (workload, target) cell is one fabric task returning its
    ``[phase, rule, source, fires]`` rows; the rows are summed per rule,
    so the totals are identical for any ``jobs``.  The ``session``'s
    cache makes unchanged cells free, and its metrics and tracer
    receive the executed compiles' telemetry (a cache hit adds only its
    ``fabric_tasks`` count and span).
    """
    from ..rulesets import pitchfork

    tgts = list(targets) if targets is not None else list(PAPER_TARGETS)
    specs = cell_specs("coverage", CellParams(lift_strategy=lift_strategy),
                       workload_names, tgts)
    fires: Counter = Counter()
    failures: List[str] = []
    for res in (session or CompilerSession()).run_tasks(specs):
        if res.ok:
            for phase, rule, source, n in res.value:
                fires[phase, rule, source] += n
        else:
            failures.append(f"({'/'.join(res.spec.key)}): {res.error}")

    # One row per rule the sweep's compiles run.
    groups = [("lift", "lifting", pitchfork().lift)] + [
        ("lower", t.name, pitchfork(t).lower) for t in tgts
    ]
    rows = [
        RuleCoverage(
            name=r.name,
            source=r.source,
            phase=phase,
            ruleset=ruleset,
            fires=fires[phase, r.name, r.source],
        )
        for phase, ruleset, rules in groups
        for r in rules
    ]
    return CoverageReport(
        rows=rows,
        workloads=list(dict.fromkeys(s.key[0] for s in specs)),
        targets=[t.name for t in tgts],
        failures=failures,
    )
