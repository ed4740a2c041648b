"""CompilerSession contract: from_args, warm-up, the compile job kind."""

import argparse

from repro.fabric import ResultCache, TaskSpec, run_tasks
from repro.fabric.jobs import CellParams
from repro.session import CompilerSession, compile_cell, compile_listing


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
