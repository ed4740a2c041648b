"""Machine-program lint + interval translation validation (M-codes).

PR 4's static analysis stops at the IR/FPIR boundary; this module checks
what comes *out* of the lowerer: the ``TargetOp`` tree, its linearized
register program, and the per-instruction reference semantics the ISA
tables promise.  Diagnostic codes (full table in
:mod:`repro.lint.diagnostics` and DESIGN.md §6):

* M001 use of a register/input with no prior definition
* M002 result width disagrees with the spec's semantics expansion
* M003 operand count disagrees with the semantics arity
* M004 dead instruction (result never read, not the program result)
* M005 non-lowered node survived past the lowerer
* M006 ``reference_semantics`` missing, raising, or ill-typed
* M007 translation validation: lowered interval escapes the source's

Three consumption paths:

* :func:`machine_check` — the pass-boundary hook behind
  ``PassManager(verify_each=True)`` / CLI ``--verify-each``: a no-op on
  trees without target ops, the full M-code lint otherwise;
* :func:`lint_machine_program` / :func:`validate_translation` — direct
  checks of one lowered program (tests, ad-hoc debugging);
* :func:`run_machine_lint` — the batch sweep over the 16-workload ×
  3-target matrix on the execution fabric (``repro lint --machine``),
  which also collects the register-pressure report and the emitted
  mnemonic set the ISA-table linter cross-checks (T004).

Translation validation abstract-interprets the lowered program through
the bounds engine: every ``TargetOp`` is given the interval of its
reference-semantics expansion over surrogate operands
(:class:`MachineBoundsAnalyzer`), and the program's output interval must
be contained in the source expression's interval.  Both are sound
over-approximations of the same exact value set, so a containment
failure means either a miscompile or an abstract-domain precision gap —
the matrix test pins the shipped rules to zero such gaps.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.dataflow import (
    MachineProgram,
    def_use_chains,
    register_pressure,
)
from ..analysis.intervals import BoundsAnalyzer, Interval
from ..ir import expr as E
from ..ir.types import ScalarType
from ..machine.program import describe_lineage
from ..session import CompilerSession
from ..targets.isa import TargetOp
from .diagnostics import Diagnostic
from .verifier import verify_expr

__all__ = [
    "MachineBoundsAnalyzer",
    "TranslationCheck",
    "MachineLintReport",
    "lint_machine_program",
    "lint_machine_lines",
    "machine_check",
    "validate_translation",
    "machine_cell",
    "run_machine_lint",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _semantics_arity(fn) -> Optional[int]:
    """Required positional parameter count of a semantics builder, or
    ``None`` when the signature is open (``*args``/not introspectable)."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return None
    required = 0
    for p in sig.parameters.values():
        if p.kind == p.VAR_POSITIONAL:
            return None
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            if p.default is p.empty:
                required += 1
    return required


def _surrogate_expansion(node: TargetOp) -> E.Expr:
    """The node's reference-semantics expansion over surrogate operands.

    Operands are replaced by fresh variables of the operand's type —
    except constants, which stay constants (several spec semantics embed
    operand values in their meaning, mirroring the simulator).
    """
    args = [
        child if isinstance(child, E.Const)
        else E.Var(child.type, f"__m{i}")
        for i, child in enumerate(node.children)
    ]
    return node.spec.semantics(*args)


def _blame(provenance, node) -> str:
    """``" [chain]"`` suffix naming the rule lineage of a blamed node."""
    if provenance is None:
        return ""
    lineage = describe_lineage(node, provenance)
    return f" [{lineage}]" if lineage else ""


# ----------------------------------------------------------------------
# M-code checks
# ----------------------------------------------------------------------
def lint_machine_lines(
    program: MachineProgram, ruleset: str = ""
) -> List[Diagnostic]:
    """Dataflow-level checks (M001/M004) on a linearized program view.

    Exposed separately from :func:`lint_machine_program` because these
    are the only checks that apply to hand-built line sequences (test
    fixtures, future schedulers) with no expression tree behind them.
    """
    out: List[Diagnostic] = []
    chains = def_use_chains(program)
    result = program.result
    for chain in chains.values():
        if chain.def_index is None and chain.name not in program.inputs:
            first = min(chain.uses) if chain.uses else -1
            ins = program.instrs[first]
            out.append(Diagnostic(
                "M001", f"{ins.dst} = {ins.mnemonic}",
                f"reads {chain.name!r}, which no prior instruction or "
                f"program input defines",
                ruleset,
            ))
        elif chain.is_dead and chain.name != result:
            ins = program.instrs[chain.def_index]
            out.append(Diagnostic(
                "M004", f"{ins.dst} = {ins.mnemonic}",
                f"result {chain.name!r} is never read and is not the "
                f"program result",
                ruleset,
            ))
    return out


def lint_machine_program(
    lowered: E.Expr,
    ruleset: str = "",
    provenance=None,
) -> List[Diagnostic]:
    """All M-code diagnostics for one lowered program.

    ``provenance`` (a :class:`~repro.observe.Provenance`, optional)
    appends the ``--explain``-style rule chain of the blamed instruction
    to every message, so a machine diagnostic names the lift/lower rules
    that produced the offending code.
    """
    program = MachineProgram.from_expr(lowered)
    out = lint_machine_lines(program, ruleset)
    for ins in program.instrs:
        node = ins.node
        subject = f"{ins.dst} = {ins.mnemonic}"
        if not isinstance(node, TargetOp):
            out.append(Diagnostic(
                "M005", subject,
                f"{type(node).__name__} is not a target instruction: "
                f"the lowerer left core IR/FPIR in the final program"
                f"{_blame(provenance, node)}",
                ruleset,
            ))
            continue
        spec = node.spec
        arity = _semantics_arity(spec.semantics)
        if arity is not None and arity != len(node.children):
            out.append(Diagnostic(
                "M003", subject,
                f"{len(node.children)} operand"
                f"{'s' if len(node.children) != 1 else ''} but "
                f"{spec.name}'s semantics takes {arity}"
                f"{_blame(provenance, node)}",
                ruleset,
            ))
            continue  # expanding with the wrong arity would just raise
        try:
            expansion = _surrogate_expansion(node)
        except Exception as exc:
            out.append(Diagnostic(
                "M006", subject,
                f"reference_semantics raised {type(exc).__name__}: {exc}"
                f"{_blame(provenance, node)}",
                ruleset,
            ))
            continue
        violations = verify_expr(expansion)
        if violations:
            out.append(Diagnostic(
                "M006", subject,
                f"reference_semantics expansion is ill-formed: "
                f"{violations[0].message}"
                f"{_blame(provenance, node)}",
                ruleset,
            ))
            continue
        et, ot = expansion.type, node.out
        if (
            isinstance(et, ScalarType)
            and isinstance(ot, ScalarType)
            and et.bits != ot.bits
        ):
            out.append(Diagnostic(
                "M002", subject,
                f"declared result type {ot} but the semantics expansion "
                f"computes {et} ({et.bits}-bit lanes vs {ot.bits})"
                f"{_blame(provenance, node)}",
                ruleset,
            ))
    return out


def machine_check(expr: E.Expr) -> List[Diagnostic]:
    """The ``verify_each`` pass-boundary hook for the machine level.

    Trees without target instructions (everything before the lowerer)
    pass untouched; once any ``TargetOp`` appears, the full machine lint
    runs — so partially-lowered output is caught as M005 at the exact
    pass boundary where it escaped.
    """
    seen = set()
    stack = [expr]
    has_target = False
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, TargetOp):
            has_target = True
            break
        stack.extend(node.children)
    if not has_target:
        return []
    return lint_machine_program(expr)


# ----------------------------------------------------------------------
# Interval translation validation
# ----------------------------------------------------------------------
class MachineBoundsAnalyzer(BoundsAnalyzer):
    """Bounds analysis that understands lowered ``TargetOp`` trees.

    Each target instruction's interval is the interval of its
    reference-semantics expansion evaluated over surrogate variables
    carrying the operand intervals (constants stay constants, mirroring
    the simulator's evaluation path).  When the expansion's type differs
    from the declared output type the simulator masks and wraps, so the
    interval survives only when it is provably value-preserving.
    """

    def _compute(self, e: E.Expr) -> Interval:
        if isinstance(e, TargetOp):
            return self._target_bounds(e)
        return super()._compute(e)

    def _target_bounds(self, e: TargetOp) -> Interval:
        out = e.out
        fallback = (
            Interval.of_type(out)
            if isinstance(out, ScalarType)
            else Interval(0, 1)
        )
        surrogate_env: Dict[str, Interval] = {}
        args: List[E.Expr] = []
        for i, child in enumerate(e.children):
            if isinstance(child, E.Const):
                args.append(child)
            else:
                name = f"__m{i}"
                args.append(E.Var(child.type, name))
                surrogate_env[name] = self.bounds(child)
        try:
            expansion = e.spec.semantics(*args)
        except Exception:
            return fallback  # M006 territory; stay sound here
        sub = MachineBoundsAnalyzer(surrogate_env)
        got = sub.bounds(expansion)
        et = expansion.type
        if (
            isinstance(out, ScalarType)
            and isinstance(et, ScalarType)
            and et != out
        ):
            # simulator: out.wrap(v & et.mask) — identity only when the
            # value is non-negative and representable in both types.
            if got.lo >= 0 and got.fits(out):
                return got
            return fallback
        return got


@dataclass
class TranslationCheck:
    """Result of validating one lowered program against its source."""

    source_interval: Interval
    machine_interval: Interval
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def contained(self) -> bool:
        return (
            self.source_interval.lo <= self.machine_interval.lo
            and self.machine_interval.hi <= self.source_interval.hi
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": [self.source_interval.lo, self.source_interval.hi],
            "machine": [
                self.machine_interval.lo, self.machine_interval.hi,
            ],
            "contained": self.contained,
        }


def validate_translation(
    source: E.Expr,
    lowered: E.Expr,
    var_bounds: Optional[Dict[str, Interval]] = None,
    ruleset: str = "",
    provenance=None,
) -> TranslationCheck:
    """Prove the lowered program's output interval is contained in the
    source expression's interval (abstract translation validation).

    A violation is reported as an M007 error naming the program's root
    instruction and (when ``provenance`` is given) the rule chain that
    produced it.
    """
    src = BoundsAnalyzer(var_bounds).bounds(source)
    mach = MachineBoundsAnalyzer(var_bounds).bounds(lowered)
    check = TranslationCheck(source_interval=src, machine_interval=mach)
    if not check.contained:
        root = lowered
        mnemonic = (
            root.spec.name if isinstance(root, TargetOp)
            else type(root).__name__.lower()
        )
        check.diagnostics.append(Diagnostic(
            "M007", mnemonic,
            f"lowered interval [{mach.lo}, {mach.hi}] escapes the source "
            f"interval [{src.lo}, {src.hi}]"
            f"{_blame(provenance, root)}",
            ruleset,
        ))
    return check


# ----------------------------------------------------------------------
# Batch sweep (``repro lint --machine``)
# ----------------------------------------------------------------------
def machine_cell(
    wl_name: str,
    target_name: str,
    use_synthesized: bool = True,
    lift_strategy: str = "greedy",
) -> Dict[str, Any]:
    """Run one (workload, target) cell: compile with provenance, lint the
    lowered program, validate translation, profile register pressure.

    Returns plain JSON data — this is the body of the ``machinelint``
    fabric job kind, so a worker process (or the result cache) can carry
    the whole cell across the process boundary.
    """
    from ..observe import Observation
    from ..pipeline import pitchfork_compile
    from ..targets import by_name as target_by_name
    from ..workloads import by_name

    wl = by_name(wl_name)
    obs = Observation.quiet()
    prog = pitchfork_compile(
        wl.expr,
        target_by_name(target_name),
        var_bounds=wl.var_bounds,
        use_synthesized=use_synthesized,
        trace=obs,
        lift_strategy=lift_strategy,
    )
    ruleset = f"{wl_name}@{target_name}"
    diags = lint_machine_program(
        prog.lowered, ruleset=ruleset, provenance=obs.provenance
    )
    check = validate_translation(
        wl.expr,
        prog.lowered,
        var_bounds=wl.var_bounds,
        ruleset=ruleset,
        provenance=obs.provenance,
    )
    diags.extend(check.diagnostics)
    view = MachineProgram.from_expr(prog.lowered)
    pressure = register_pressure(view)
    return {
        "diagnostics": [d.to_dict() for d in diags],
        "containment": check.to_dict(),
        "pressure": pressure.to_dict(),
        "mnemonics": sorted({i.mnemonic for i in view.instrs}),
        "instructions": len(view),
    }


@dataclass
class MachineLintReport:
    """Sweep-wide machine-lint results (diagnostics + pressure profile)."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: "workload@target" -> the cell's JSON payload (input order)
    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    workloads: List[str] = field(default_factory=list)
    targets: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def contained_cells(self) -> int:
        return sum(
            1 for c in self.cells.values()
            if c["containment"]["contained"]
        )

    def emitted_mnemonics(self, target: Optional[str] = None) -> Set[str]:
        """Mnemonics the sweep actually selected (T004 cross-check)."""
        out: Set[str] = set()
        for key, cell in self.cells.items():
            if target is not None and not key.endswith(f"@{target}"):
                continue
            out.update(cell["mnemonics"])
        return out

    def max_pressure(self) -> Dict[str, Dict[str, Any]]:
        """Per-target peak register pressure and the cell that hits it."""
        peak: Dict[str, Dict[str, Any]] = {}
        for key, cell in self.cells.items():
            target = key.rsplit("@", 1)[1]
            live = cell["pressure"]["max_live"]
            if target not in peak or live > peak[target]["max_live"]:
                peak[target] = {"max_live": live, "cell": key}
        return peak

    def format_text(self, verbose: bool = False) -> str:
        lines = [
            f"machine lint over {len(self.workloads)} workloads x "
            f"{len(self.targets)} targets ({', '.join(self.targets)})"
        ]
        for target in self.targets:
            cells = {
                k: c for k, c in self.cells.items()
                if k.endswith(f"@{target}")
            }
            if not cells:
                continue
            instrs = sum(c["instructions"] for c in cells.values())
            peak = max(c["pressure"]["max_live"] for c in cells.values())
            proved = sum(
                1 for c in cells.values()
                if c["containment"]["contained"]
            )
            lines.append(
                f"-- {target}: {len(cells)} cells, {instrs} instructions, "
                f"peak pressure {peak}, containment {proved}/{len(cells)}"
            )
            if verbose:
                for key, c in cells.items():
                    ct = c["containment"]
                    lines.append(
                        f"   {key:<34} {c['instructions']:>3} instrs  "
                        f"live<={c['pressure']['max_live']:<2} "
                        f"[{ct['machine'][0]}, {ct['machine'][1]}] in "
                        f"[{ct['source'][0]}, {ct['source'][1]}]"
                    )
        for d in self.diagnostics:
            lines.append(f"   {d}")
        for failure in self.failures:
            lines.append(f"CELL FAILED: {failure}")
        lines.append(
            f"machine lint: {len(self.cells)} cells, "
            f"{len(self.errors)} error"
            f"{'s' if len(self.errors) != 1 else ''}, "
            f"{len(self.warnings)} warning"
            f"{'s' if len(self.warnings) != 1 else ''}, "
            f"containment proved on "
            f"{self.contained_cells}/{len(self.cells)}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workloads": list(self.workloads),
            "targets": list(self.targets),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "cells": dict(self.cells),
            "contained_cells": self.contained_cells,
            "max_pressure": self.max_pressure(),
            "failures": list(self.failures),
        }


def run_machine_lint(
    workload_names: Optional[Sequence[str]] = None,
    targets: Optional[Sequence[Any]] = None,
    session: Optional[CompilerSession] = None,
) -> MachineLintReport:
    """Machine-lint the full workload × target matrix on the fabric.

    Each cell is one ``machinelint`` fabric task (cacheable on the same
    expression + rulebase fingerprints as the coverage sweep), run in
    the ``session``'s context; results merge in input order, so the
    report is byte-identical whatever ``jobs`` is.
    """
    from ..fabric.jobs import CellParams, cell_specs
    from ..targets import PAPER_TARGETS

    tgts = list(targets) if targets is not None else list(PAPER_TARGETS)
    specs = cell_specs("machinelint", CellParams(), workload_names, tgts)
    report = MachineLintReport(
        workloads=list(dict.fromkeys(s.key[0] for s in specs)),
        targets=[t.name for t in tgts],
    )
    for res in (session or CompilerSession()).run_tasks(specs):
        key = "@".join(res.spec.key)
        if not res.ok:
            report.failures.append(f"({'/'.join(res.spec.key)}): {res.error}")
            continue
        report.cells[key] = res.value
        for d in res.value["diagnostics"]:
            report.diagnostics.append(Diagnostic(
                code=d["code"],
                subject=d["subject"],
                message=d["message"],
                ruleset=d["ruleset"],
            ))
    return report
