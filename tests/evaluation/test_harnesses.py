"""Evaluation-harness tests: the figure generators produce verified,
paper-shaped data on representative subsets (full sweeps live in
benchmarks/)."""

import pytest

from repro.evaluation.ablation import ablate_one, run_ablation
from repro.evaluation.codegen_compare import (
    figure3_cases,
    run_codegen_comparison,
)
from repro.evaluation.compile_time import (
    CompileTimeEvaluation,
    measure_one,
    run_compile_time_evaluation,
    split_seconds,
)
from repro.evaluation.coverage import run_coverage
from repro.evaluation.runtime import run_one, run_runtime_evaluation
from repro.lint.machinelint import run_machine_lint
from repro.targets import ARM, HVX, X86
from repro.workloads import WORKLOADS, by_name

SUBSET = ["sobel3x3", "add", "mul", "camera_pipe"]


class TestRuntimeHarness:
    def test_subset_sweep(self):
        ev = run_runtime_evaluation(
            workload_names=SUBSET, with_rake=False
        )
        assert len(ev.results) == len(SUBSET) * 3
        assert all(r.verified for r in ev.results)
        assert all(r.speedup >= 0.99 for r in ev.results)

    def test_hvx_64bit_substitution_marked(self):
        r = run_one(by_name("mul"), HVX, with_rake=False)
        assert r.llvm_substituted
        r2 = run_one(by_name("sobel3x3"), HVX, with_rake=False)
        assert not r2.llvm_substituted

    def test_rake_at_least_as_fast_as_pitchfork(self):
        for name in ("sobel3x3", "add"):
            r = run_one(by_name(name), HVX, with_rake=True)
            assert r.rake_cycles is not None
            assert r.rake_cycles <= r.pitchfork_cycles + 1e-9

    def test_geomean_and_table(self):
        ev = run_runtime_evaluation(workload_names=SUBSET, with_rake=False)
        g = ev.geomean_speedup("arm-neon")
        assert g > 1.0
        table = ev.format_table()
        assert "sobel3x3" in table and "geomean" in table

    def test_leave_one_out_never_beats_full(self):
        wl = by_name("add")
        from repro.pipeline import pitchfork_compile

        full = pitchfork_compile(wl.expr, HVX, var_bounds=wl.var_bounds)
        loo = pitchfork_compile(
            wl.expr,
            HVX,
            var_bounds=wl.var_bounds,
            exclude_sources={"synth:add"},
        )
        assert loo.cost().total >= full.cost().total


class TestAblationHarness:
    def test_subset(self):
        ev = run_ablation(workload_names=["add", "sobel3x3", "max_pool"])
        assert all(r.verified for r in ev.results)
        # add/HVX must show the big fused-rule effect
        add_hvx = next(
            r
            for r in ev.results
            if r.workload == "add" and r.target == "hexagon-hvx"
        )
        assert add_hvx.speedup > 2.0
        # max_pool gains nothing from synthesized rules
        mp = next(r for r in ev.results if r.workload == "max_pool")
        assert mp.speedup == pytest.approx(1.0)

    def test_hand_only_never_faster(self):
        for name in SUBSET:
            for target in (ARM, HVX):
                r = ablate_one(by_name(name), target)
                assert r.speedup >= 1.0 - 1e-9, (name, target.name)


class TestCompileTimeHarness:
    def test_measures_both_flows(self):
        r = measure_one(by_name("sobel3x3"), ARM, repeats=2)
        assert r.llvm.total_seconds > 0 and r.pitchfork.total_seconds > 0

    def test_split_is_read_off_every_cell(self):
        # Selection and downstream time come off one run's spans, so on
        # every cell neither is negative and together they fit the total.
        ev = CompileTimeEvaluation(results=[
            measure_one(by_name(name), target, repeats=1)
            for name in WORKLOADS
            for target in (X86, ARM, HVX)
        ])
        for r in ev.results:
            for stats in (r.llvm, r.pitchfork):
                parts = split_seconds(stats)
                assert parts["selection"] > 0 and parts["downstream"] > 0
                assert (
                    parts["selection"] + parts["downstream"]
                    <= parts["total"]
                )
        table = ev.format_table()
        for t in ("x86-avx2", "arm-neon", "hexagon-hvx"):
            line = next(ln for ln in table.splitlines() if t in ln)
            assert "selection" in line and "downstream" in line

    def test_keeps_each_flows_fastest_run(self, monkeypatch):
        # A flow's stats are those of its fastest run, whole: not the
        # per-pass minima of several runs.
        from repro.evaluation import compile_time

        runs = {"llvm_compile": [], "pitchfork_compile": []}
        for fn, seen in runs.items():
            def spy(*args, _compile=getattr(compile_time, fn), _seen=seen,
                    **kwargs):
                prog = _compile(*args, **kwargs)
                _seen.append(prog.stats)
                return prog

            monkeypatch.setattr(compile_time, fn, spy)
        r = measure_one(by_name("mul"), HVX, repeats=3)
        for stats, seen in zip((r.llvm, r.pitchfork), runs.values()):
            assert len(seen) == 3
            assert stats is min(seen, key=lambda s: s.total_seconds)

    def test_repeats_below_one_runs_no_cell(self, monkeypatch):
        # a cell of no compiles has no fastest run
        from repro import fabric

        ran = []
        monkeypatch.setattr(
            fabric, "run_tasks", lambda specs, **kw: ran.extend(specs) or []
        )
        with pytest.raises(ValueError, match="repeats"):
            run_compile_time_evaluation(repeats=0)
        assert ran == []

    def test_softmax_compiles_faster_with_pitchfork(self):
        r = measure_one(by_name("softmax"), ARM, repeats=3)
        assert r.speedup > 1.0


class TestFig3Harness:
    def test_three_cases(self):
        cases = figure3_cases()
        assert [c.label for c in cases] == ["(a)", "(b)", "(c)"]

    def test_report_contains_listings(self):
        out = run_codegen_comparison([ARM])
        assert "PITCHFORK:" in out and "LLVM:" in out
        assert "umlal" in out
        assert "speedup" in out


@pytest.mark.parametrize("harness", [
    run_runtime_evaluation,
    run_ablation,
    run_compile_time_evaluation,
    run_coverage,
    run_machine_lint,
], ids=["fig5", "fig7", "fig6", "coverage", "machinelint"])
def test_unknown_workload_name_is_refused(harness, monkeypatch):
    # An unknown name is an error naming the suite, never an empty
    # sweep (which coverage would report as every rule dead).
    from repro import fabric

    ran = []
    monkeypatch.setattr(
        fabric, "run_tasks", lambda specs, **kw: ran.extend(specs) or []
    )
    with pytest.raises(ValueError, match="unknown workload 'bogus'.*sobel3x3"):
        harness(workload_names=["add", "bogus"])
    assert ran == []
