"""CompilerSession contract: from_args, warm-up, the run context of
every sweep, the compile job kind."""

import argparse

import pytest

from repro.evaluation.ablation import run_ablation
from repro.evaluation.coverage import run_coverage
from repro.fabric import ResultCache, TaskSpec, WorkerPool, run_tasks
from repro.fabric.jobs import CellParams
from repro.session import CompilerSession, compile_cell, compile_listing
from repro.targets import ARM


def _args(**kw):
    ns = argparse.Namespace()
    for k, v in kw.items():
        setattr(ns, k, v)
    return ns


class TestFromArgs:
    def test_bare_args_give_inline_session(self):
        s = CompilerSession.from_args(_args())
        assert s.jobs == 1 and s.cache is None
        assert s.metrics is None and s.phase_tracer is None

    def test_trace_arg_creates_the_sweep_tracer(self):
        s = CompilerSession.from_args(_args(trace="t.json"))
        assert s.tracer is not None and s.metrics is None
        for args in (_args(), _args(trace=None)):
            assert CompilerSession.from_args(args).tracer is None

    def test_cache_flag_opens_a_cache(self, tmp_path):
        s = CompilerSession.from_args(
            _args(cache=True, cache_dir=str(tmp_path))
        )
        assert isinstance(s.cache, ResultCache)
        assert s.cache.root == str(tmp_path)

    def test_no_cache_wins(self, tmp_path):
        s = CompilerSession.from_args(
            _args(cache=True, cache_dir=str(tmp_path), no_cache=True)
        )
        assert s.cache is None

    def test_report_arg_creates_the_observability_pair(self):
        s = CompilerSession.from_args(_args(report="out.json"))
        assert s.metrics is not None and s.phase_tracer is not None
        # ...and its absence costs nothing (the disabled-path contract).
        s2 = CompilerSession.from_args(_args(report=None))
        assert s2.metrics is None and s2.phase_tracer is None


class TestWarmUp:
    def test_warm_up_is_idempotent(self):
        s = CompilerSession()
        first = s.warm_up(targets=["arm-neon"])
        again = s.warm_up(targets=["arm-neon"])
        assert first["warmed"] is False and first["rules"] > 0
        assert again["warmed"] is True and again["seconds"] == 0.0

    def test_inline_session_has_no_pool(self):
        s = CompilerSession(jobs=1)
        assert s.ensure_pool() is None
        s.close()  # must be safe without a pool


class TestRunContext:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            CompilerSession(jobs=jobs)

    def test_two_sweeps_share_one_pool(self, monkeypatch):
        built = []
        init = WorkerPool.__init__

        def counted(pool, jobs):
            built.append(jobs)
            init(pool, jobs)

        monkeypatch.setattr(WorkerPool, "__init__", counted)

        def sweeps(session):
            coverage = run_coverage(workload_names=["add", "mean"],
                                    targets=[ARM], session=session)
            ablation = run_ablation(workload_names=["add", "mean"],
                                    session=session)
            return coverage.to_json(), ablation.format_table()

        with CompilerSession() as inline:
            serial = sweeps(inline)
        assert built == []
        with CompilerSession(jobs=2) as pooled:
            parallel = sweeps(pooled)
        assert built == [2]
        assert parallel == serial


class TestCompileCell:
    def test_listing_matches_the_formatter(self):
        cell = compile_cell("add", "arm-neon")
        s = CompilerSession()
        prog = s.compile("add", "arm-neon")
        assert cell["listing"] == compile_listing(prog, "add")
        assert cell["workload"] == "add"
        assert cell["target"] == "arm-neon"
        assert cell["cycles"] > 0
        assert cell["instructions"] > 0

    def test_cell_is_deterministic(self):
        # A cached cell is replayed to later requests, so it may hold
        # only what every compile of it gives: no wall-clock reading.
        assert compile_cell("add", "arm-neon") == compile_cell(
            "add", "arm-neon"
        )

    def test_compile_job_kind_runs_on_the_fabric(self):
        spec = TaskSpec("compile", ("add", "arm-neon"), CellParams())
        res = run_tasks([spec])[0]
        assert res.ok
        assert res.value["listing"] == compile_cell("add", "arm-neon")["listing"]

    def test_compile_job_kind_is_cacheable(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = TaskSpec("compile", ("add", "arm-neon"), CellParams())
        first = run_tasks([spec], cache=cache)[0]
        second = run_tasks([spec], cache=cache)[0]
        assert not first.cached and second.cached
        assert first.value == second.value

    def test_strategy_is_in_the_params(self, tmp_path):
        # Different lift strategies must not share cache entries.
        cache = ResultCache(root=str(tmp_path))
        greedy = TaskSpec("compile", ("add", "arm-neon"), CellParams())
        egraph = TaskSpec(
            "compile", ("add", "arm-neon"),
            CellParams(lift_strategy="egraph"),
        )
        run_tasks([greedy], cache=cache)
        res = run_tasks([egraph], cache=cache)[0]
        assert not res.cached
