"""Unit tests for the Pass protocol and the instrumented PassManager."""

import pytest

from repro.ir import builders as h
from repro.ir import expr as E
from repro.ir.types import U8
from repro.passes import CompileStats, Pass, PassContext, PassManager

a = h.var("a", U8)
b = h.var("b", U8)


class _Record(Pass):
    """Appends its name to a shared log; optionally transforms."""

    def __init__(self, name, log, transform=None, rewrites=0):
        self.name = name
        self._log = log
        self._transform = transform
        self._rewrites = rewrites

    def run(self, expr, ctx):
        self._log.append(self.name)
        ctx.rewrites += self._rewrites
        return self._transform(expr) if self._transform else expr


class TestPassManager:
    def test_passes_run_in_order(self):
        log = []
        pm = PassManager([_Record(n, log) for n in ("p1", "p2", "p3")])
        out, stats = pm.run(E.Add(a, b))
        assert log == ["p1", "p2", "p3"]
        assert out == E.Add(a, b)
        assert [p.name for p in stats.passes] == ["p1", "p2", "p3"]

    def test_result_threads_through_passes(self):
        log = []
        pm = PassManager([
            _Record("wrap", log, transform=lambda e: E.Min(e, e)),
            _Record("wrap2", log, transform=lambda e: E.Max(e, e)),
        ])
        out, _ = pm.run(a)
        assert out == E.Max(E.Min(a, a), E.Min(a, a))

    def test_stats_attribute_rewrite_deltas_per_pass(self):
        log = []
        pm = PassManager([
            _Record("p1", log, rewrites=3),
            _Record("p2", log, rewrites=0),
            _Record("p3", log, rewrites=5),
        ])
        _, stats = pm.run(a)
        assert [p.rewrites for p in stats.passes] == [3, 0, 5]
        assert stats.rewrites == 8

    def test_stats_record_node_counts(self):
        log = []
        pm = PassManager(
            [_Record("grow", log, transform=lambda e: E.Add(e, b))]
        )
        _, stats = pm.run(a)
        assert stats.passes[0].nodes_in == 1
        assert stats.passes[0].nodes_out == 3

    def test_times_are_positive_and_sum_below_total(self):
        log = []
        pm = PassManager([_Record(n, log) for n in ("p1", "p2")])
        _, stats = pm.run(a)
        assert all(p.seconds >= 0.0 for p in stats.passes)
        assert stats.total_seconds >= sum(p.seconds for p in stats.passes)

    def test_getitem_by_pass_name(self):
        log = []
        pm = PassManager([_Record("p1", log, rewrites=2)])
        _, stats = pm.run(a)
        assert stats["p1"].rewrites == 2
        with pytest.raises(KeyError):
            stats["nope"]

    def test_context_created_when_absent(self):
        seen = []

        class Probe(Pass):
            name = "probe"

            def run(self, expr, ctx):
                seen.append(ctx)
                return expr

        PassManager([Probe()]).run(a)
        assert isinstance(seen[0], PassContext)

    def test_format_table_lists_every_pass(self):
        log = []
        pm = PassManager([_Record(n, log) for n in ("alpha", "beta")])
        _, stats = pm.run(a)
        table = stats.format_table()
        assert "alpha" in table and "beta" in table and "total" in table

    def test_format_table_total_row_aggregates_node_flow(self):
        log = []
        pm = PassManager([
            _Record("grow", log, transform=lambda e: E.Add(e, b)),
            _Record("wrap", log, transform=lambda e: E.Min(e, e)),
        ])
        _, stats = pm.run(a)
        total_row = stats.format_table().splitlines()[-1]
        cols = total_row.split()
        # total row aligns with the header: ms, rewrites, nodes in/out
        assert cols[0] == "total"
        assert int(cols[2]) == stats.rewrites
        assert int(cols[3]) == stats.passes[0].nodes_in == 1
        assert int(cols[4]) == stats.passes[-1].nodes_out == 7

    def test_format_table_total_row_without_passes(self):
        _, stats = PassManager([]).run(a)
        total_row = stats.format_table().splitlines()[-1]
        assert total_row.split()[0] == "total"
        assert len(total_row.split()) == 3  # no node columns to aggregate

    def test_to_dict_round_trips_the_breakdown(self):
        log = []
        pm = PassManager([
            _Record("p1", log, rewrites=2),
            _Record("p2", log, transform=lambda e: E.Add(e, b)),
        ])
        _, stats = pm.run(a)
        data = stats.to_dict()
        assert data["total_seconds"] == stats.total_seconds
        assert data["rewrites"] == 2
        assert [p["name"] for p in data["passes"]] == ["p1", "p2"]
        assert data["passes"][1]["nodes_out"] == 3
        import json

        json.dumps(data)  # must be JSON-serializable as-is

    def test_empty_pipeline_is_identity(self):
        out, stats = PassManager([]).run(a)
        assert out is a
        assert stats.passes == [] and stats.rewrites == 0


class TestCompileStatsOnPrograms:
    def test_pitchfork_program_carries_stats(self):
        from repro.pipeline import pitchfork_compile
        from repro.targets import ARM
        from repro.workloads import by_name

        wl = by_name("sobel3x3")
        prog = pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds)
        assert isinstance(prog.stats, CompileStats)
        assert [p.name for p in prog.stats.passes] == [
            "canonicalize", "lift", "lower", "backend",
        ]
        assert prog.stats["lift"].rewrites > 0
        assert prog.compile_seconds == prog.stats.total_seconds

    def test_traced_stats_are_read_off_the_spans(self):
        # One clock: every per-pass time and the compile total are the
        # durations of the spans the trace records, not a second timer.
        from repro.observe import Observation
        from repro.pipeline import pitchfork_compile
        from repro.targets import ARM
        from repro.workloads import by_name

        wl = by_name("sobel3x3")
        obs = Observation()
        prog = pitchfork_compile(
            wl.expr, ARM, var_bounds=wl.var_bounds, trace=obs
        )
        spans = {sp.name: sp for sp in obs.tracer.spans}
        for p in prog.stats.passes:
            assert p.seconds == spans[f"pass:{p.name}"].duration_us / 1e6
            hist = obs.metrics.histogram("pass_seconds", stage=p.name)
            assert hist.total == p.seconds
        assert prog.compile_seconds == spans["compile"].duration_us / 1e6
        assert prog.stats.total_seconds == prog.compile_seconds

    def test_quiet_compile_times_on_a_private_tracer(self):
        # A NullTracer records nothing, yet the stats are still timed
        # (by spans on a private tracer) and feed the histogram.
        from repro.observe import Observation
        from repro.pipeline import pitchfork_compile
        from repro.targets import ARM
        from repro.workloads import by_name

        wl = by_name("sobel3x3")
        obs = Observation.quiet()
        prog = pitchfork_compile(
            wl.expr, ARM, var_bounds=wl.var_bounds, trace=obs
        )
        assert obs.tracer.spans == []
        assert all(p.seconds > 0 for p in prog.stats.passes)
        assert prog.compile_seconds >= sum(
            p.seconds for p in prog.stats.passes
        )
        for p in prog.stats.passes:
            hist = obs.metrics.histogram("pass_seconds", stage=p.name)
            assert hist.total == p.seconds
