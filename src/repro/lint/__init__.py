"""Static analysis: verification, rule lint, machine lint, ISA lint.

Four layers, all reporting through stable diagnostic codes
(:mod:`repro.lint.diagnostics`, mirrored in DESIGN.md):

* :func:`verify_expr` / :func:`assert_well_formed` — a single-walk
  type/structure checker over concrete IR/FPIR trees.  Wired into the
  pipeline as ``PassManager(verify_each=True)`` (CLI ``--verify-each``),
  which re-verifies the tree after every pass and names the pass that
  broke it.
* :func:`lint_rules` / :func:`lint_all_rulebases` — static diagnostics
  over ``trs.Rule`` lists, shipped as ``python -m repro lint``.
* :func:`lint_machine_program` / :func:`validate_translation` /
  :func:`run_machine_lint` — lowered-program diagnostics (M-codes) and
  interval translation validation, shipped as
  ``python -m repro lint --machine``.  :func:`machine_check` is the
  pass-boundary hook ``verify_each`` runs alongside :func:`verify_expr`.
* :func:`lint_target` / :func:`lint_all_targets` — ISA-table
  diagnostics (T-codes) over the shipped InstrSpec tables, shipped as
  ``python -m repro lint --targets``.

Warnings at every layer ratchet through the shared baseline helper in
:mod:`repro.lint.ratchet`.
"""

from .diagnostics import CODES, Diagnostic
from .machinelint import (
    MachineLintReport,
    lint_machine_program,
    machine_check,
    run_machine_lint,
    validate_translation,
)
from .ratchet import RatchetResult, apply_ratchet, read_baseline
from .rulelint import LintReport, lint_all_rulebases, lint_rules
from .targetlint import TargetLintReport, lint_all_targets, lint_target
from .verifier import WellFormednessError, assert_well_formed, verify_expr

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "MachineLintReport",
    "RatchetResult",
    "TargetLintReport",
    "WellFormednessError",
    "apply_ratchet",
    "assert_well_formed",
    "lint_all_rulebases",
    "lint_all_targets",
    "lint_machine_program",
    "lint_rules",
    "lint_target",
    "machine_check",
    "read_baseline",
    "run_machine_lint",
    "validate_translation",
    "verify_expr",
]
