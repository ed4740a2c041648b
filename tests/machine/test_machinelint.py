"""Machine-program lint (M-codes) + interval translation validation.

The fixture tests pin each diagnostic code on a minimal hand-built
program; the matrix tests are the acceptance criteria — every lowered
program of the workload x target suite lints clean, containment is
proved on all 48 cells, and the simulator agrees lane-exactly with the
numpy evaluation of the source expression (the differential spot check
behind "zero false positives").
"""

import pytest

from repro import fpir as F
from repro.analysis.dataflow import MachineProgram
from repro.analysis.intervals import Interval
from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import U8, U16
from repro.lint.machinelint import (
    MachineBoundsAnalyzer,
    lint_machine_lines,
    lint_machine_program,
    machine_check,
    machine_cell,
    run_machine_lint,
    validate_translation,
)
from repro.observe import Observation
from repro.passes import PassManager, PassVerificationError
from repro.pipeline import pitchfork_compile
from repro.targets import PAPER_TARGETS, by_name as target_by_name
from repro.targets import arm as arm_mod
from repro.targets.isa import InstrSpec, target_op
from repro.workloads import WORKLOADS, by_name

a = h.var("a", U8)
b = h.var("b", U8)


def _spec(name, semantics, cost=1.0):
    return InstrSpec(name, "fake-isa", cost, semantics)


class TestLineChecks:
    def test_m001_undefined_use(self):
        p = MachineProgram.from_lines(
            [("t0", "add", ["a", "ghost"])], inputs=["a"]
        )
        diags = lint_machine_lines(p)
        assert [d.code for d in diags] == ["M001"]
        assert "ghost" in diags[0].message

    def test_m004_dead_instruction(self):
        p = MachineProgram.from_lines(
            [
                ("t0", "add", ["a", "a"]),
                ("t1", "mul", ["a", "a"]),
            ],
            inputs=["a"],
        )
        diags = lint_machine_lines(p)
        assert [d.code for d in diags] == ["M004"]
        assert diags[0].subject == "t0 = add"
        assert diags[0].severity == "warning"

    def test_clean_lines(self):
        p = MachineProgram.from_lines(
            [
                ("t0", "add", ["a", "a"]),
                ("t1", "mul", ["t0", "a"]),
            ],
            inputs=["a"],
        )
        assert lint_machine_lines(p) == []


class TestProgramChecks:
    def test_m005_unlowered_interior_node(self):
        mixed = target_op(arm_mod.ABS, U8, E.Add(a, b))
        codes = [d.code for d in lint_machine_program(mixed)]
        assert codes == ["M005"]

    def test_m003_arity_mismatch(self):
        two = _spec("needs2", lambda x, y: E.Add(x, y))
        prog = target_op(two, U8, a)  # one operand, semantics wants two
        codes = [d.code for d in lint_machine_program(prog)]
        assert codes == ["M003"]

    def test_m006_raising_semantics(self):
        def boom(x):
            raise RuntimeError("no meaning")

        prog = target_op(_spec("boom", boom), U8, a)
        diags = lint_machine_program(prog)
        assert [d.code for d in diags] == ["M006"]
        assert "RuntimeError" in diags[0].message

    def test_m006_ill_formed_expansion(self):
        bad = _spec(
            "bad", lambda x: E.Add(x, E.Var(U16, "__wide"))
        )  # u8 + u16: L001 inside the expansion
        codes = [d.code for d in lint_machine_program(target_op(bad, U8, a))]
        assert codes == ["M006"]

    def test_m002_width_disagreement(self):
        widening = _spec("wadd", lambda x, y: F.WideningAdd(x, y))
        prog = target_op(widening, U8, a, b)  # semantics computes u16
        diags = lint_machine_program(prog)
        assert [d.code for d in diags] == ["M002"]
        assert "16-bit lanes vs 8" in diags[0].message

    def test_clean_target_op(self):
        prog = target_op(arm_mod.UQADD, U8, a, b)
        assert lint_machine_program(prog) == []

    def test_provenance_blame_in_message(self):
        obs = Observation.quiet()
        wl = by_name("l2norm")
        prog = pitchfork_compile(
            wl.expr, target_by_name("arm-neon"), var_bounds=wl.var_bounds,
            trace=obs,
        )
        # Re-root the clean program under a node with broken semantics so
        # a diagnostic fires and can carry the operand's rule lineage.
        bad = _spec("bad", lambda x: E.Add(x, E.Var(U16, "__w")))
        mixed = target_op(bad, prog.lowered.type, prog.lowered)
        diags = lint_machine_program(mixed, provenance=obs.provenance)
        blamed = [d for d in diags if d.code == "M006"]
        assert blamed and "[" in blamed[0].message  # lineage suffix


class TestMachineCheck:
    def test_noop_before_lowering(self):
        assert machine_check(E.Add(a, b)) == []

    def test_flags_mixed_tree(self):
        mixed = target_op(arm_mod.ABS, U8, E.Add(a, b))
        assert any(d.code == "M005" for d in machine_check(mixed))

    def test_verify_each_catches_partial_lowering(self):
        class LeakyLower:
            name = "leaky-lower"

            def run(self, expr, ctx):
                return target_op(arm_mod.ABS, U8, expr)

        pm = PassManager([LeakyLower()], verify_each=True)
        with pytest.raises(PassVerificationError) as err:
            pm.run(E.Add(a, b))
        assert err.value.pass_name == "leaky-lower"
        assert any(d.code == "M005" for d in err.value.diagnostics)


class TestTranslationValidation:
    def test_contained_translation(self):
        prog = target_op(arm_mod.UQADD, U8, a, b)
        check = validate_translation(F.SaturatingAdd(a, b), prog)
        assert check.contained
        assert check.diagnostics == []

    def test_m007_on_escape(self):
        shift = _spec("bump", lambda x: E.Add(x, E.Const(U8, 100)))
        lowered = target_op(shift, U8, a)
        check = validate_translation(
            a, lowered, var_bounds={"a": Interval(0, 10)}
        )
        assert not check.contained
        assert [d.code for d in check.diagnostics] == ["M007"]
        assert "escapes" in check.diagnostics[0].message

    def test_machine_bounds_use_semantics(self):
        bounds = MachineBoundsAnalyzer({"a": Interval(0, 3)}).bounds(
            target_op(
                _spec("dbl", lambda x: E.Add(x, x)), U8, a
            )
        )
        assert (bounds.lo, bounds.hi) == (0, 6)

    def test_wrap_mismatch_keeps_only_provable_values(self):
        # Semantics computes u16; the op declares a u8 result, so the
        # simulator masks+wraps.  A provably-in-range interval survives;
        # one that overflows u8 must widen to the full type range.
        widening = _spec("wadd", lambda x, y: F.WideningAdd(x, y))
        small = MachineBoundsAnalyzer(
            {"a": Interval(0, 5), "b": Interval(0, 5)}
        ).bounds(target_op(widening, U8, a, b))
        assert (small.lo, small.hi) == (0, 10)
        big = MachineBoundsAnalyzer().bounds(
            target_op(widening, U8, a, b)
        )
        assert (big.lo, big.hi) == (0, 255)


# ----------------------------------------------------------------------
# The acceptance matrix: every suite cell, every paper target
# ----------------------------------------------------------------------
@pytest.mark.parametrize("target", [t.name for t in PAPER_TARGETS])
def test_matrix_lints_clean_with_containment(target):
    for name in WORKLOADS:
        cell = machine_cell(name, target)
        assert cell["diagnostics"] == [], f"{name}@{target}"
        assert cell["containment"]["contained"], f"{name}@{target}"
        assert cell["pressure"]["max_live"] >= 1
        assert cell["instructions"] >= 1


def test_run_machine_lint_report_shape():
    report = run_machine_lint(
        workload_names=["mean", "l2norm"],
        targets=[target_by_name("arm-neon")],
    )
    # the cells keep the suite's figure order, not the names' order
    assert report.workloads == ["l2norm", "mean"]
    assert set(report.cells) == {"mean@arm-neon", "l2norm@arm-neon"}
    assert report.contained_cells == 2
    assert not report.failures
    assert report.emitted_mnemonics("arm-neon")
    assert report.max_pressure()["arm-neon"]["max_live"] >= 1
    text = report.format_text()
    assert "containment 2/2" in text
    assert "0 errors" in text
    payload = report.to_dict()
    assert payload["contained_cells"] == 2
    assert payload["errors"] == 0


def test_differential_numpy_spot_check():
    """Everywhere translation validation runs, the lowered program must
    also agree lane-exactly with the source expression evaluated on the
    numpy array backend."""
    pytest.importorskip("numpy")
    from repro.interp.backend import compile_for_backend

    lanes = 8
    for name in WORKLOADS:
        wl = by_name(name)
        env = wl.random_env(lanes=lanes, seed=907)
        ref = compile_for_backend(wl.expr, "numpy")(env, lanes)
        for target in PAPER_TARGETS:
            prog = pitchfork_compile(
                wl.expr, target, var_bounds=wl.var_bounds
            )
            got = prog.run(env)
            assert got == ref, f"{name}@{target.name}"
