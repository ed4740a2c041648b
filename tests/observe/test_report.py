"""Unit tests for the run-report subsystem (build/write/load)."""

import json

import pytest

from repro.observe import (
    MetricsRegistry,
    RunReport,
    Tracer,
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

