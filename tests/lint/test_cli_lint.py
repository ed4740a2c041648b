"""CLI surface of the static analyses: ``repro lint``, the baseline
ratchet, ``rules --verify`` verdicts, and ``compile --verify-each``."""

import json

import repro.__main__ as cli
from repro.__main__ import main
from repro.verify import VerificationReport


class TestLintCommand:
    def test_shipped_rulebases_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lifting (hand)" in out
        assert "0 errors" in out

    def test_json_format(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["warnings"] == 0
        assert isinstance(payload["diagnostics"], list)
        assert "lifting (hand)" in payload["rule_counts"]

    def test_baseline_reports_stale_entries(self, tmp_path, capsys):
        baseline = tmp_path / "lint_baseline.txt"
        baseline.write_text(
            "# fixture\nL105 lifting (hand):no-such-rule\n"
        )
        # A stale entry is reported but never fails the run.
        assert main(["lint", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "trim the baseline" in out
        assert "L105 lifting (hand):no-such-rule" in out

    def test_new_warning_fails_against_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.lint import LintReport
        from repro.lint.diagnostics import Diagnostic

        fake = LintReport(
            diagnostics=[
                Diagnostic("L105", "some-rule", "shadowed", "lifting (hand)")
            ],
            rule_counts={"lifting (hand)": 1},
        )
        import repro.lint as lint_mod

        monkeypatch.setattr(
            lint_mod, "lint_all_rulebases", lambda coverage_fires=None: fake
        )
        baseline = tmp_path / "empty.txt"
        baseline.write_text("# nothing tolerated\n")
        assert main(["lint", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "new lint warnings" in out
        assert "L105 lifting (hand):some-rule" in out
        # The same warning listed in the baseline is tolerated.
        baseline.write_text("L105 lifting (hand):some-rule\n")
        assert main(["lint", "--baseline", str(baseline)]) == 0


class TestLintBackendFlags:
    def test_machine_and_targets_clean(self, capsys):
        assert main(["lint", "--machine", "--targets"]) == 0
        out = capsys.readouterr().out
        assert "containment proved on 48/48" in out
        assert "target lint:" in out
        assert "0 errors" in out

    def _fake_machine_report(self, diagnostics=()):
        from repro.lint import MachineLintReport

        return MachineLintReport(
            diagnostics=list(diagnostics),
            cells={
                "mean@arm-neon": {
                    "diagnostics": [d.to_dict() for d in diagnostics],
                    "containment": {
                        "source": [0, 255], "machine": [0, 255],
                        "contained": True,
                    },
                    "pressure": {
                        "max_live": 3, "at_index": 0,
                        "timeline": [3], "peak_values": [],
                    },
                    "mnemonics": ["urhadd"],
                    "instructions": 1,
                }
            },
            workloads=["mean"],
            targets=["arm-neon"],
        )

    def test_machine_json_payload(self, capsys, monkeypatch):
        import repro.lint as lint_mod

        fake = self._fake_machine_report()
        monkeypatch.setattr(
            lint_mod, "run_machine_lint", lambda **kw: fake
        )
        assert main(["lint", "--machine", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"]["contained_cells"] == 1
        assert payload["machine"]["errors"] == 0
        assert "targets" not in payload

    def test_machine_warning_ratchets(self, tmp_path, capsys, monkeypatch):
        from repro.lint.diagnostics import Diagnostic

        import repro.lint as lint_mod

        warn = Diagnostic(
            "M004", "v0 = urhadd", "result never read", "mean@arm-neon"
        )
        fake = self._fake_machine_report([warn])
        monkeypatch.setattr(
            lint_mod, "run_machine_lint", lambda **kw: fake
        )
        baseline = tmp_path / "machinelint_baseline.txt"
        baseline.write_text("# nothing tolerated\n")
        assert main(
            ["lint", "--machine", "--baseline", str(baseline)]
        ) == 1
        out = capsys.readouterr().out
        assert "M004 mean@arm-neon:v0 = urhadd" in out
        baseline.write_text("M004 mean@arm-neon:v0 = urhadd\n")
        assert main(
            ["lint", "--machine", "--baseline", str(baseline)]
        ) == 0

    def test_machine_error_fails_regardless_of_baseline(
        self, tmp_path, monkeypatch
    ):
        from repro.lint.diagnostics import Diagnostic

        import repro.lint as lint_mod

        err = Diagnostic(
            "M007", "urhadd", "interval escapes", "mean@arm-neon"
        )
        fake = self._fake_machine_report([err])
        monkeypatch.setattr(
            lint_mod, "run_machine_lint", lambda **kw: fake
        )
        baseline = tmp_path / "machinelint_baseline.txt"
        baseline.write_text("M007 mean@arm-neon:urhadd\n")
        assert main(
            ["lint", "--machine", "--baseline", str(baseline)]
        ) == 1


class TestRulesVerify:
    def test_per_rule_verdicts_ok(self, capsys, monkeypatch):
        import repro.verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "verify_rule",
            lambda rule, **kw: VerificationReport(rule.name, True, 0, 0),
        )
        assert main(["rules", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "-- verifying lifting (hand)" in out
        assert "ok  " in out and "[hand]" in out
        assert "all OK" in out
        assert "sample-verifies every lifting and lowering rule set" in out
        assert "-- verifying lowering (arm-neon)" in out
        assert "not sample-verified" not in out

    def test_failing_rule_exits_nonzero(self, capsys, monkeypatch):
        import repro.verify as verify_mod

        calls = {"n": 0}

        def fake_verify(rule, **kw):
            calls["n"] += 1
            ok = calls["n"] != 1  # first rule fails
            return VerificationReport(
                rule.name, ok, 0, 0,
                counterexample=None if ok else "x=3 -> 7 != 9",
            )

        monkeypatch.setattr(verify_mod, "verify_rule", fake_verify)
        assert main(["rules", "--verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "counterexample: x=3 -> 7 != 9" in out
        assert "1 FAILED" in out


class TestCompileVerifyEach:
    def test_clean_compile(self, capsys):
        assert main(
            ["compile", "sobel3x3", "--target", "arm-neon", "--verify-each"]
        ) == 0

    def test_broken_pass_reported(self, capsys, monkeypatch):
        from repro import pipeline
        from repro.passes import PassVerificationError

        def boom(*a, **kw):
            raise PassVerificationError("lift", [])

        # CompilerSession imports pitchfork_compile from the pipeline
        # module at call time, so patch it at the source.
        monkeypatch.setattr(pipeline, "pitchfork_compile", boom)
        assert main(
            ["compile", "add", "--target", "arm-neon", "--verify-each"]
        ) == 1
        err = capsys.readouterr().err
        assert "VERIFY-EACH FAILED" in err
        assert "lift" in err
