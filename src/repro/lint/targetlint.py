"""ISA-table lint (T-codes): static checks over the shipped InstrSpecs.

The machine linter (:mod:`repro.lint.machinelint`) checks instructions a
compile actually emitted; this module checks the *tables themselves* —
every :class:`~repro.targets.isa.InstrSpec` a target module ships,
whether or not any workload currently selects it.  One "table" per
target is the union of the module's spec constants, every spec a
lowering or Rake rule's RHS references, and the generic mapper's cost
table (the on-demand add/shift/compare specs all draw their costs from
it).  Codes:

* T001 duplicate mnemonic: two *different* specs share a name in one
  table (cost models, coverage attribution and diffable reports all key
  on the mnemonic, so a collision silently merges two instructions);
* T002 non-positive throughput cost on something that is not a
  zero-cost register move (``reinterpret``/``bitcast``) — a free
  instruction makes the §4 cost minimization pick it unboundedly;
* T003 no admissible operand typing: for no candidate operand typing
  does ``reference_semantics`` produce a well-formed expansion, i.e.
  the spec's meaning is unusable by the simulator, the bounds engine
  and translation validation alike;
* T004 spec unreachable: no shipped lowering/Rake rule emits it *and*
  the machine-lint sweep never selected its mnemonic (dead table
  entries — warning, ratcheted, because baselines like the LLVM Q31
  sequence are deliberately rule-less).

Run via ``python -m repro lint --targets``; pass the emitted-mnemonic
set from :func:`repro.lint.machinelint.run_machine_lint` to cross-check
T004 against what the suite sweep actually selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..ir import expr as E
from ..ir.types import ARITH_TYPES
from ..rulesets import rake
from ..targets import ALL_TARGETS, Target
from ..targets import arm as _arm
from ..targets import hvx as _hvx
from ..targets import powerpc as _ppc
from ..targets import riscv as _riscv
from ..targets import wasm as _wasm
from ..targets import x86 as _x86
from ..targets.isa import InstrSpec, TargetOp
from .diagnostics import Diagnostic
from .machinelint import _semantics_arity
from .verifier import verify_expr

__all__ = [
    "TargetLintReport",
    "admissible_typing",
    "lint_target",
    "lint_all_targets",
    "table_specs",
]

#: target name -> defining module (for table enumeration by module vars)
_MODULES = {
    m.DESC.name: m for m in (_x86, _arm, _hvx, _wasm, _riscv, _ppc)
}

#: cost-table kinds that legitimately cost nothing (register renames)
_FREE_KINDS = frozenset({"reinterpret"})

_PROBE_BITS = (8, 16, 32, 64)


def _rule_specs(target: Target) -> List[Tuple[str, InstrSpec]]:
    """Every spec referenced on a lowering/Rake rule RHS, with the rule
    name as its origin label."""
    out: List[Tuple[str, InstrSpec]] = []
    seen: Set[int] = set()
    flow = rake(target)
    for rule in flow.lower + flow.moves:
        stack: List[Any] = [rule.rhs]
        while stack:
            node = stack.pop()
            if isinstance(node, TargetOp) and id(node.spec) not in seen:
                seen.add(id(node.spec))
                out.append((f"rule {rule.name}", node.spec))
            stack.extend(getattr(node, "children", ()))
    return out


def table_specs(target: Target) -> List[Tuple[str, InstrSpec]]:
    """The target's ISA table: ``(origin, spec)`` pairs.

    Origin is the module constant name (``VPADDUS``) or the rule that
    references the spec (``rule rake-hvx-vsat-noswizzle``); one entry per
    distinct spec object, module constants first.
    """
    module = _MODULES[target.name]
    out: List[Tuple[str, InstrSpec]] = []
    seen: Set[int] = set()
    for const, value in vars(module).items():
        if isinstance(value, InstrSpec) and id(value) not in seen:
            seen.add(id(value))
            out.append((const, value))
    for origin, spec in _rule_specs(target):
        if id(spec) not in seen:
            seen.add(id(spec))
            out.append((origin, spec))
    return out


def _typing_shapes(t, arity: int) -> List[Tuple]:
    """Candidate operand typings for one base element type.

    The shipped tables use three operand conventions: all-same-width
    (``vpaddus``), widened-first for accumulate/extend forms (``uaddw``,
    ``vmpy.acc``: the accumulator is one widening step up), and
    doubly-widened-first for extending reductions (``vrmpy``).
    """
    shapes = [(t,) * arity]
    if t.bits < 64:
        w = t.widen()
        if arity >= 2:
            shapes.append((w,) + (t,) * (arity - 1))
        if arity == 2:
            shapes.append((t, w))
        if arity >= 3 and w.bits < 64:
            shapes.append((w.widen(),) + (t,) * (arity - 1))
    return shapes


def admissible_typing(spec: InstrSpec) -> Optional[Tuple]:
    """A concrete operand typing whose semantics expansion is
    well-formed, or ``None`` when no candidate works (T003)."""
    arity = _semantics_arity(spec.semantics)
    if arity is None:
        return None
    for t in ARITH_TYPES:
        for shape in _typing_shapes(t, arity):
            args = [
                E.Var(ty, f"__t{i}") for i, ty in enumerate(shape)
            ]
            try:
                expansion = spec.semantics(*args)
            except Exception:
                continue
            if not verify_expr(expansion):
                return shape
    return None


def _lint_generic_costs(target: Target, ruleset: str) -> List[Diagnostic]:
    """T002 over the generic mapper's cost table (probed per width)."""
    out: List[Diagnostic] = []
    for kind, cost in sorted(target.generic.costs.items()):
        worst = None
        for bits in _PROBE_BITS:
            try:
                c = cost(bits) if callable(cost) else float(cost)
            except Exception:  # width-gated cost callables may refuse
                continue
            if worst is None or c < worst:
                worst = c
        if worst is None:
            continue
        if worst < 0 or (worst == 0 and kind not in _FREE_KINDS):
            out.append(Diagnostic(
                "T002", f"generic:{kind}",
                f"generic cost table entry evaluates to {worst} "
                f"(every selectable instruction must cost > 0)",
                ruleset,
            ))
    return out


def lint_target(
    target: Target,
    emitted: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """All T-code diagnostics for one target's ISA table.

    ``emitted`` is the set of mnemonics the machine-lint suite sweep
    actually selected (any target); a spec no rule emits is still
    considered reachable — and its T004 dropped — when the sweep used it
    (e.g. specs the LLVM-baseline substitution injects directly).
    """
    ruleset = f"isa ({target.name})"
    out: List[Diagnostic] = []
    table = table_specs(target)
    rule_spec_names = {spec.name for _, spec in _rule_specs(target)}

    by_name: Dict[str, List[Tuple[str, InstrSpec]]] = {}
    for origin, spec in table:
        by_name.setdefault(spec.name, []).append((origin, spec))
    for name, entries in by_name.items():
        distinct = [
            e for i, e in enumerate(entries)
            if all(e[1] != other for _, other in entries[:i])
        ]
        if len(distinct) > 1:
            origins = ", ".join(origin for origin, _ in entries)
            out.append(Diagnostic(
                "T001", name,
                f"{len(entries)} distinct specs share this mnemonic "
                f"({origins}): costs and coverage would be merged",
                ruleset,
            ))

    for origin, spec in table:
        if spec.cost < 0 or (spec.cost == 0 and not spec.swizzle):
            out.append(Diagnostic(
                "T002", spec.name,
                f"cost {spec.cost} on {origin} (every selectable "
                f"instruction must cost > 0)",
                ruleset,
            ))
        if admissible_typing(spec) is None:
            out.append(Diagnostic(
                "T003", spec.name,
                f"no candidate operand typing makes {origin}'s "
                f"reference_semantics expansion well-formed",
                ruleset,
            ))

    module = _MODULES[target.name]
    for const, value in vars(module).items():
        if not isinstance(value, InstrSpec):
            continue
        if value.name in rule_spec_names:
            continue
        if emitted is not None and value.name in emitted:
            continue
        swept = (
            " and the machine-lint sweep never selected it"
            if emitted is not None else ""
        )
        out.append(Diagnostic(
            "T004", value.name,
            f"module constant {const} is emitted by no lowering or "
            f"Rake rule{swept}",
            ruleset,
        ))
    out.extend(_lint_generic_costs(target, ruleset))
    return out


@dataclass
class TargetLintReport:
    """T-code diagnostics across every shipped ISA table."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: target name -> number of distinct specs in its table
    spec_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def format_text(self) -> str:
        lines = []
        for name, count in self.spec_counts.items():
            label = f"isa ({name})"
            diags = [d for d in self.diagnostics if d.ruleset == label]
            lines.append(
                f"-- {label}: {count} specs, {len(diags)} diagnostic"
                f"{'s' if len(diags) != 1 else ''}"
            )
            for d in diags:
                lines.append(f"   {d}")
        lines.append(
            f"target lint: {sum(self.spec_counts.values())} specs over "
            f"{len(self.spec_counts)} tables, "
            f"{len(self.errors)} error"
            f"{'s' if len(self.errors) != 1 else ''}, "
            f"{len(self.warnings)} warning"
            f"{'s' if len(self.warnings) != 1 else ''}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_counts": dict(self.spec_counts),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def lint_all_targets(
    emitted: Optional[Set[str]] = None,
    targets: Optional[Sequence[Target]] = None,
) -> TargetLintReport:
    """Lint every shipped ISA table (all six targets by default)."""
    report = TargetLintReport()
    tgts = (
        list(targets) if targets is not None else list(ALL_TARGETS.values())
    )
    for target in tgts:
        report.spec_counts[target.name] = len(table_specs(target))
        report.diagnostics.extend(lint_target(target, emitted=emitted))
    return report
