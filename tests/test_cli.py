"""CLI tests (`python -m repro`)."""

import json

import pytest

from repro.__main__ import main


class TestCompile:
    def test_compile_single_target(self, capsys):
        assert main(["compile", "sobel3x3", "--target", "arm-neon"]) == 0
        out = capsys.readouterr().out
        assert "umlal" in out and "uabd" in out

    def test_compile_with_comparison(self, capsys):
        assert main(
            ["compile", "add", "--target", "hexagon-hvx", "--compare"]
        ) == 0
        out = capsys.readouterr().out
        assert "PITCHFORK" in out and "LLVM" in out and "faster" in out

    def test_compile_show_fpir(self, capsys):
        assert main(
            ["compile", "mul", "--target", "arm-neon", "--show-fpir"]
        ) == 0
        assert "rounding_mul_shr" in capsys.readouterr().out

    def test_compile_every_backend(self, capsys):
        assert main(["compile", "max_pool", "--target", "every"]) == 0
        out = capsys.readouterr().out
        for name in ("x86-avx2", "arm-neon", "hexagon-hvx",
                     "wasm-simd128", "riscv-rvv"):
            assert name in out

    def test_q31_substitution_note(self, capsys):
        assert main(
            ["compile", "mul", "--target", "hexagon-hvx", "--compare"]
        ) == 0
        assert "q31 substitution" in capsys.readouterr().out

    def test_compile_stats_breakdown(self, capsys):
        assert main(
            ["compile", "sobel3x3", "--target", "arm-neon", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-pass breakdown" in out
        for name in ("canonicalize", "lift", "lower", "backend", "total"):
            assert name in out
        assert "rewrites" in out

    def test_compile_stats_with_compare_covers_every_compiler(self, capsys):
        assert main(
            ["compile", "add", "--target", "arm-neon", "--compare",
             "--rake", "--stats", "--verify-each"]
        ) == 0
        out = capsys.readouterr().out
        tables = {
            block.split(")", 1)[0]: block
            for block in out.split("-- per-pass breakdown (")[1:]
        }
        assert set(tables) == {"pitchfork", "llvm", "rake"}
        for flow, passes in (
            ("pitchfork", ("canonicalize", "lift", "lower", "backend")),
            ("llvm", ("select", "backend")),
            ("rake", ("canonicalize", "lift", "search")),
        ):
            for name in passes + ("total",):
                assert f"\n{name} " in tables[flow], (flow, name)

    def test_closed_stdout_exits_quietly(self):
        # `repro compile ... | head -1`: the reader goes away mid-output.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "compile", "matmul",
             "--target", "all", "--lift-strategy", "egraph", "--explain"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"== matmul")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""

    def test_compile_trace_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(
            ["compile", "sobel3x3", "--target", "arm-neon",
             "--trace", str(trace)]
        ) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        for ev in events:
            assert {"name", "ph", "ts"} <= set(ev)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"compile", "pass:lift", "pass:lower"} <= names

    def test_compile_explain_annotates_every_line(self, capsys):
        assert main(
            ["compile", "sobel3x3", "--target", "arm-neon", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        asm = [ln for ln in out.splitlines() if " ; " in ln]
        assert asm
        for line in asm:
            assert "lift:" in line or "lower:" in line

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "not_a_benchmark"])

    @pytest.mark.parametrize("argv", [
        ["compile", "add"],
        ["coverage"],
        ["client", "--port", "1", "compile", "add"],
    ], ids=["compile", "coverage", "client-compile"])
    def test_unknown_target_exits_2_listing_the_valid_ones(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--target", "bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'bogus'" in captured.err
        for name in ("all", "every", "x86-avx2", "powerpc-vsx"):
            assert f"'{name}'" in captured.err
        assert captured.out == ""


class TestOtherCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 16

    def test_rules_summary(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "lifting (hand)" in out and "total:" in out

    def test_rules_verbose(self, capsys):
        assert main(["rules", "--verbose"]) == 0
        assert "lift-widening-add" in capsys.readouterr().out

    def test_synthesize(self, capsys):
        assert main(["synthesize", "add", "--max-candidates", "10"]) == 0
        assert "corpus:" in capsys.readouterr().out

    def test_synthesize_rejects_unknown_benchmark(self, capsys):
        assert main(["synthesize", "add", "not_a_benchmark"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark: not_a_benchmark" in err
        assert "valid workloads:" in err
        assert "sobel3x3" in err

    def test_evaluate_fig3(self, capsys):
        assert main(["evaluate", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out or "(a)" in out

    def test_evaluate_all_passes_the_lift_strategy(self, tmp_path,
                                                   monkeypatch, capsys):
        # Figures 5 and 6 of the full report run under the strategy
        # asked for, as `evaluate fig5`/`fig6` do (each spy still runs
        # its real sweep, on one workload).
        from repro.evaluation import report

        seen = {}
        for name in ("run_runtime_evaluation",
                     "run_compile_time_evaluation", "run_ablation"):
            def spy(_real=getattr(report, name), _name=name, **kw):
                seen[_name] = kw
                return _real(workload_names=["add"], **kw)

            monkeypatch.setattr(report, name, spy)
        assert main(["evaluate", "all", "--lift-strategy", "egraph",
                     "--no-rake", "--repeats", "1",
                     "--write", str(tmp_path / "all.md")]) == 0
        capsys.readouterr()
        assert seen["run_runtime_evaluation"]["lift_strategy"] == "egraph"
        assert (seen["run_compile_time_evaluation"]["lift_strategy"]
                == "egraph")
        # the three sweeps share the command's one session
        sessions = {id(kw["session"]) for kw in seen.values()}
        assert len(sessions) == 1

    @pytest.mark.parametrize("figure", ["fig6", "all"])
    def test_evaluate_rejects_zero_repeats(self, figure, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", figure, "--repeats", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "'repeats'" in captured.err and captured.out == ""


class TestCoverage:
    def test_coverage_report_and_exit_code(self, capsys):
        # The single-target sweep leaves hand-written rules dead, so the
        # bare command exits non-zero while still printing the report.
        rc = main(["coverage", "--target", "arm-neon"])
        out = capsys.readouterr().out
        assert "rule coverage over 16 workloads x 1 targets" in out
        assert "-- lifting:" in out
        assert rc == (1 if "FAIL" in out else 0)

    def test_coverage_json_export(self, tmp_path, capsys):
        report = tmp_path / "coverage.json"
        main(["coverage", "--target", "arm-neon", "--json", str(report)])
        data = json.loads(report.read_text())
        assert data["targets"] == ["arm-neon"]
        assert any(r["fires"] for r in data["rules"])

    def test_coverage_baseline_ratchet(self, tmp_path, capsys):
        # A baseline listing every currently-dead hand rule makes the
        # ratchet pass; an empty baseline fails on the same sweep.
        rc = main(["coverage", "--target", "arm-neon"])
        first = capsys.readouterr().out
        baseline = tmp_path / "baseline.txt"
        dead = [
            ln.split()[0]
            for ln in first.splitlines()
            if "HAND-WRITTEN" in ln
        ]
        baseline.write_text("# known gaps\n" + "\n".join(dead) + "\n")
        assert main(
            ["coverage", "--target", "arm-neon",
             "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc2 = main(
            ["coverage", "--target", "arm-neon", "--baseline", str(empty)]
        )
        assert rc2 == rc
        if rc:
            assert "newly dead" in capsys.readouterr().out


class TestFabricOptions:
    """--jobs/--cache plumbing and the cache subcommand."""

    def test_coverage_jobs_output_is_identical(self, capsys):
        main(["coverage", "--target", "arm-neon"])
        serial = capsys.readouterr().out
        main(["coverage", "--target", "arm-neon", "--jobs", "2"])
        assert capsys.readouterr().out == serial

    def test_coverage_cache_dir_warm_run(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        main(["coverage", "--target", "arm-neon", "--cache-dir", root])
        first = capsys.readouterr().out
        main(["coverage", "--target", "arm-neon", "--cache-dir", root])
        assert capsys.readouterr().out == first
        import os

        assert os.path.isdir(root)

    def test_no_cache_wins(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        main(["coverage", "--target", "arm-neon", "--cache-dir", root,
              "--no-cache"])
        capsys.readouterr()
        import os

        assert not os.path.exists(root)

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        main(["coverage", "--target", "arm-neon", "--cache-dir", root])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "entries: 16" in out and "coverage" in out
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "removed 16 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_fingerprint_is_stable(self, capsys):
        assert main(["cache", "fingerprint"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["cache", "fingerprint"]) == 0
        assert capsys.readouterr().out.strip() == first
        assert len(first) == 64 and int(first, 16) >= 0

    @pytest.mark.parametrize("argv", [
        ["evaluate", "fig7"],
        ["rules"],
        ["coverage"],
        ["lint"],
        ["synthesize", "add"],
        ["serve"],
    ], ids=["evaluate", "rules", "coverage", "lint", "synthesize", "serve"])
    def test_jobs_below_one_exits_2(self, argv, capsys, monkeypatch):
        def never_served(**kw):
            raise AssertionError("serve started despite a bad --jobs")

        # a daemon that did start would block the test run
        monkeypatch.setattr("repro.serve.ServeDaemon", never_served)
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--jobs", jobs])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "argument --jobs" in captured.err
            assert f"at least 1, got {jobs}" in captured.err
            assert captured.out == ""

    def test_rules_verify_jobs_output_is_identical(self, capsys):
        main(["rules", "--verify"])
        serial = capsys.readouterr().out
        main(["rules", "--verify", "--jobs", "2"])
        assert capsys.readouterr().out == serial


class TestRunReports:
    """--report artifacts and the report show subcommand."""

    def _emit(self, tmp_path, name="r.json"):
        path = tmp_path / name
        assert main(["compile", "add", "--target", "x86-avx2",
                     "--report", str(path)]) == 0
        return path

    def test_compile_report_artifact(self, tmp_path, capsys):
        path = self._emit(tmp_path)
        assert f"wrote run report to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == "repro-report/1"
        assert doc["command"] == "compile"
        assert [p["name"] for p in doc["phases"]] == ["compile:x86-avx2"]
        assert doc["metrics"]["counters"]  # rule fires were recorded
        assert doc["spans"]["span_count"] > 0
        assert doc["spans"]["critical_path"][0]["name"] == "compile"

    def test_compile_output_unchanged_by_report(self, tmp_path, capsys):
        assert main(["compile", "add", "--target", "x86-avx2"]) == 0
        plain = capsys.readouterr().out
        self._emit(tmp_path)
        with_report = capsys.readouterr().out
        assert with_report.startswith(plain)

    def test_coverage_report_and_trace(self, tmp_path, capsys):
        report = tmp_path / "cov.json"
        trace = tmp_path / "trace.json"
        main(["coverage", "--target", "x86-avx2", "--jobs", "2",
              "--report", str(report), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert "process lanes" in out
        doc = json.loads(report.read_text())
        assert doc["command"] == "coverage"
        assert doc["spans"]["span_count"] > 0
        assert len(doc["spans"]["pids"]) >= 2  # merged worker lanes
        events = json.loads(trace.read_text())
        assert any(e["ph"] == "M" for e in events)
        assert any(e["name"] == "task:coverage" for e in events)

    @pytest.mark.parametrize("argv, phases, extra", [
        (["rules"], [], ["rules_total"]),
        (["rules", "--verify"], ["verify-rules"],
         ["rules_checked", "verify_failures"]),
        (["lint"], ["lint"], ["lint_errors", "lint_warnings"]),
        (["lint", "--targets"], ["target-lint"],
         ["isa_specs", "lint_errors", "lint_warnings"]),
        (["lint", "--machine"], ["machine-lint"],
         ["contained_cells", "lint_errors", "lint_warnings",
          "machine_cell_failures", "machine_cells",
          "register_pressure"]),
        (["synthesize", "add", "--max-candidates", "5"], ["synthesize"],
         ["corpus_size", "synthesized_pairs", "verified_rules"]),
    ])
    def test_session_report_phases_and_extra(self, tmp_path, capsys,
                                             argv, phases, extra):
        # Every command's report phases are the root spans of the
        # session's phase tracer, with the command's own extra keys.
        path = tmp_path / "r.json"
        assert main(argv + ["--report", str(path)]) == 0
        assert f"wrote run report to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["command"] == argv[0]
        assert [p["name"] for p in doc["phases"]] == phases
        assert all(p["seconds"] > 0 for p in doc["phases"])
        assert sorted(doc["extra"]) == extra

    def test_machine_lint_report_counts_every_cell(self, tmp_path, capsys):
        # The machine-lint sweep reports through the session like every
        # other sweep: one fabric_tasks count per cell of the 16 x 3.
        path = tmp_path / "r.json"
        assert main(["lint", "--machine", "--no-cache",
                     "--report", str(path)]) == 0
        capsys.readouterr()
        counters = json.loads(path.read_text())["metrics"]["counters"]
        cells = [c for c in counters if c["name"] == "fabric_tasks"]
        assert {c["labels"]["kind"] for c in cells} == {"machinelint"}
        assert sum(c["value"] for c in cells) == 48

    def test_synthesize_report_is_the_same_at_any_jobs(self, tmp_path,
                                                       capsys):
        # The SyGuS searches run as the session's tasks at --jobs 1 too
        # (inline), so both reports record the same metrics, and stdout
        # is the same apart from the report's path.
        names, outs = [], []
        for jobs in ("1", "2"):
            path = tmp_path / f"r{jobs}.json"
            assert main(["synthesize", "add", "--max-candidates", "5",
                         "--no-cache", "--jobs", jobs,
                         "--report", str(path)]) == 0
            outs.append(capsys.readouterr().out.replace(str(path), "r"))
            metrics = json.loads(path.read_text())["metrics"]
            names.append({(kind, m["name"])
                          for kind in ("counters", "histograms")
                          for m in metrics[kind]})
        assert names[0] == names[1]
        assert {("counters", "fabric_tasks"),
                ("counters", "synth_searches")} <= names[0]
        assert outs[0] == outs[1]
        assert main(["synthesize", "add", "--max-candidates", "5",
                     "--no-cache"]) == 0
        assert outs[0] == capsys.readouterr().out + "wrote run report to r\n"

    def test_report_show(self, tmp_path, capsys):
        path = self._emit(tmp_path)
        capsys.readouterr()
        assert main(["report", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "command: compile" in out
        assert "phase compile:x86-avx2" in out

    def test_report_show_rejects_non_reports(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["report", "show", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_all_report_carries_sweep_metrics(self, tmp_path,
                                                       capsys):
        path = tmp_path / "all.json"
        assert main(["evaluate", "all", "--no-rake", "--repeats", "1",
                     "--write", str(tmp_path / "all.md"),
                     "--report", str(path)]) == 0
        capsys.readouterr()
        metrics = json.loads(path.read_text())["metrics"]
        assert any(c["name"] == "rule_fired" and c["value"]
                   for c in metrics["counters"])
        assert any(h["name"] == "compile_seconds" and h["count"]
                   for h in metrics["histograms"])

    def test_evaluate_report_carries_geomeans(self, tmp_path, capsys):
        path = tmp_path / "fig7.json"
        assert main(["evaluate", "fig7", "--report", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["command"] == "evaluate"
        assert doc["metrics"]["counters"]  # fabric + pipeline telemetry
