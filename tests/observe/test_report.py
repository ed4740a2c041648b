"""Unit tests for the run-report subsystem (build/write/load/diff)."""

import copy
import json

import pytest

from repro.observe import (
    MetricsRegistry,
    RunReport,
    Tracer,
    diff_reports,
    format_diff,
    load_report,
    span_summary,
)
from repro.observe.report import SCHEMA_VERSION, environment_info


def _sample_report(tmp_path, name="r.json"):
    """Build, write and re-load a small but fully populated report."""
    phases = Tracer()
    with phases.span("compile"):
        pass
    with phases.span("verify"):
        pass
    reg = MetricsRegistry()
    reg.counter("rule_fired", rule="a").inc(3)
    reg.histogram("pass_seconds", stage="lift").observe(0.25)
    tr = Tracer()
    with tr.span("sweep"):
        with tr.span("task:coverage"):
            pass
    rep = RunReport.collect(
        "coverage",
        argv=["coverage", "--jobs", "4"],
        phases=phases,
        metrics=reg,
        tracer=tr,
        extra={"dead_rules": 2},
    )
    path = tmp_path / name
    rep.write(str(path))
    return load_report(str(path))


class TestBuildWriteLoad:
    def test_round_trip(self, tmp_path):
        doc = _sample_report(tmp_path)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "coverage"
        assert doc["argv"] == ["coverage", "--jobs", "4"]
        assert [p["name"] for p in doc["phases"]] == ["compile", "verify"]
        assert doc["env"]["python"] == environment_info()["python"]
        assert doc["fingerprints"]["repro_version"]
        assert "lift-only" in doc["fingerprints"]["rulebase"]
        (c,) = doc["metrics"]["counters"]
        assert c["value"] == 3
        assert doc["extra"] == {"dead_rules": 2}

    def test_load_rejects_non_reports(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_report(str(p))

    def test_load_rejects_unknown_schema(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"schema_version": "repro-report/999"}))
        with pytest.raises(ValueError):
            load_report(str(p))

    def test_collect_with_nothing_attached(self):
        rep = RunReport.collect("workloads", argv=[])
        doc = rep.to_dict()
        assert doc["phases"] == []
        assert doc["metrics"] == {}
        assert doc["spans"]["span_count"] == 0
        assert doc["cache"] == {}

    def test_cache_section_is_the_session_stats(self, tmp_path):
        from repro.fabric import ResultCache

        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, 1)
        cache.get("t-echo", key)
        cache.get("t-echo", key)
        doc = RunReport.collect("serve", argv=[], cache=cache).to_dict()
        assert doc["cache"] == cache.session_stats()
        assert (doc["cache"]["hits"], doc["cache"]["memory_hits"]) == (2, 1)


class TestSpanSummary:
    def test_empty_inputs(self):
        assert span_summary(None)["span_count"] == 0
        assert span_summary(Tracer())["critical_path"] == []

    def test_aggregates_and_critical_path(self):
        tr = Tracer()
        with tr.span("sweep"):
            with tr.span("task"):
                with tr.span("compile"):
                    pass
            with tr.span("task"):
                pass
        s = span_summary(tr)
        assert s["span_count"] == 4
        assert s["by_name"]["task"]["count"] == 2
        # Critical path walks root -> longest child chain.
        names = [n["name"] for n in s["critical_path"]]
        assert names[0] == "sweep"
        assert "task" in names
        assert s["critical_path_us"] >= s["by_name"]["task"]["max_us"]

    def test_multi_pid_trees_are_independent(self):
        parent = Tracer()
        with parent.span("sweep"):
            pass
        worker = Tracer()
        with worker.span("task"):
            with worker.span("compile"):
                pass
        payload = worker.to_payload()
        payload["pid"] = parent.pid + 7
        parent.merge_payload(payload)
        s = span_summary(parent)
        assert set(s["pids"]) == {parent.pid, parent.pid + 7}
        # Worker roots stay roots of their own lane: "compile" must be a
        # child of "task", never of the parent's "sweep".
        names = [n["name"] for n in s["critical_path"]]
        if names[0] == "sweep":
            assert "compile" not in names


class TestDiff:
    def test_self_diff_has_no_regressions(self, tmp_path):
        doc = _sample_report(tmp_path)
        entries = diff_reports(doc, doc, threshold=0.0)
        assert entries  # phases + histogram means are comparable
        assert not any(e.regressed for e in entries)
        assert all(e.change == 0.0 for e in entries)

    def test_injected_regression_is_flagged(self, tmp_path):
        doc = _sample_report(tmp_path)
        worse = copy.deepcopy(doc)
        for p in worse["phases"]:
            p["seconds"] *= 2.0
        entries = diff_reports(doc, worse, threshold=0.5)
        flagged = [e for e in entries if e.regressed]
        assert {e.key for e in flagged} == {
            "phase:compile.seconds",
            "phase:verify.seconds",
        }
        assert all(e.change == pytest.approx(1.0) for e in flagged)

    def test_threshold_gates_the_flag(self, tmp_path):
        doc = _sample_report(tmp_path)
        worse = copy.deepcopy(doc)
        for p in worse["phases"]:
            p["seconds"] *= 1.05
        assert not any(
            e.regressed for e in diff_reports(doc, worse, threshold=0.1)
        )
        assert any(
            e.regressed for e in diff_reports(doc, worse, threshold=0.01)
        )

    def test_higher_is_better_direction(self):
        a = {"schema_version": SCHEMA_VERSION, "phases": [],
             "extra": {"geomean_speedup": {"arm-neon": 2.0}}}
        b = copy.deepcopy(a)
        b["extra"]["geomean_speedup"]["arm-neon"] = 1.0
        entries = diff_reports(a, b, threshold=0.1)
        (e,) = entries
        assert e.direction == "higher"
        assert e.regressed
        # The other way round is an improvement, not a regression.
        assert not any(e.regressed for e in diff_reports(b, a))

    def test_missing_keys_are_skipped(self):
        a = {"schema_version": SCHEMA_VERSION,
             "phases": [{"name": "x", "seconds": 1.0}]}
        b = {"schema_version": SCHEMA_VERSION, "phases": []}
        assert diff_reports(a, b) == []

    def test_format_diff_warns_on_fingerprint_mismatch(self, tmp_path):
        doc = _sample_report(tmp_path)
        other = copy.deepcopy(doc)
        other["fingerprints"]["rulebase"] = {"lift-only": "deadbeef"}
        text = format_diff(diff_reports(doc, other), doc, other)
        assert "rulebase fingerprints differ" in text

    def test_format_diff_counts_regressions(self, tmp_path):
        doc = _sample_report(tmp_path)
        worse = copy.deepcopy(doc)
        for p in worse["phases"]:
            p["seconds"] *= 10.0
        entries = diff_reports(doc, worse, threshold=0.5)
        text = format_diff(entries, doc, worse)
        assert "2 regressed" in text
        assert "REGRESSED" in text
