"""Cross-process observability through the fabric: spans + snapshots.

The PR-7 acceptance criteria live here: a parallel sweep produces one
merged Chrome trace with worker spans on distinct per-pid lanes and
nesting preserved, worker metric snapshots merge losslessly for every
job kind, and cache hits get correctly-anchored reconstructed spans but
replay no worker telemetry.
"""

import os
import time

from repro.evaluation.ablation import run_ablation
from repro.evaluation.coverage import run_coverage
from repro.fabric import ResultCache, TaskSpec, WorkerPool, run_tasks
from repro.fabric.jobs import RuntimeParams, VerifyParams
from repro.fabric.scheduler import job_kind
from repro.observe import MetricsRegistry, Tracer
from repro.rulesets import rule_set
from repro.session import CompilerSession
from repro.targets import ARM

WORKLOADS = ["add", "mean"]


@job_kind("t-obs")
def _t_obs(spec, obs):
    # Record into the task's observation like real job kinds.
    if obs is not None:
        obs.metrics.counter("t_obs_runs", key=spec.key[0]).inc()
        with obs.tracer.span("inner-work", key=spec.key[0]):
            pass
    return spec.key[0]


@job_kind("t-obs-slow", cache_parts=lambda spec: spec.key)
def _t_obs_slow(spec, obs):
    time.sleep(0.01)
    return spec.key[0]


def _counter_snapshot(registry):
    """Deterministic view of a registry: every counter, sorted."""
    return sorted(
        (c.name, c.labels, c.value) for c in registry.counters()
    )


class TestWorkerSpans:
    def test_pool_spans_land_on_worker_pid_lanes(self):
        tracer = Tracer()
        specs = [TaskSpec("t-obs", (str(i),)) for i in range(4)]
        with WorkerPool(2) as pool:
            run_tasks(specs, tracer=tracer, pool=pool)
        task_spans = [s for s in tracer.spans if s.name == "task:t-obs"]
        assert len(task_spans) == 4
        worker_pids = {s.pid for s in task_spans}
        assert worker_pids and os.getpid() not in worker_pids
        assert all(s.args["outcome"] == "ok" for s in task_spans)
        # Nested spans from inside the job body survive the merge.
        inner = [s for s in tracer.spans if s.name == "inner-work"]
        assert len(inner) == 4
        assert all(s.depth == 1 for s in inner)
        assert {s.pid for s in inner} == worker_pids

    def test_chrome_export_names_worker_lanes(self):
        tracer = Tracer()
        specs = [TaskSpec("t-obs", (str(i),)) for i in range(4)]
        with WorkerPool(2) as pool:
            run_tasks(specs, tracer=tracer, pool=pool)
        events = tracer.to_chrome_trace()
        lane_names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert any(n.startswith("worker-") for n in lane_names)
        # Worker span timestamps are re-anchored onto the parent
        # timeline: nothing may start before the sweep began.
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] > -1e4 for e in spans)

    def test_inline_spans_record_true_starts(self):
        tracer = Tracer()
        t_before = tracer._now_us()
        specs = [TaskSpec("t-obs-slow", (str(i),)) for i in range(3)]
        run_tasks(specs, tracer=tracer)
        spans = [s for s in tracer.spans if s.name.startswith("task:")]
        assert len(spans) == 3
        # Serial tasks run back to back: each span must start at (or
        # after) the previous one's end, never stack at merge time.
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start_us >= prev.start_us + prev.duration_us - 1e3
        assert all(s.start_us >= t_before - 1e3 for s in spans)

    def test_cache_hit_spans_are_anchored_not_backdated(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        specs = [TaskSpec("t-obs-slow", (str(i),)) for i in range(2)]
        run_tasks(specs, cache=cache)  # warm
        tracer = Tracer()
        sweep_start = tracer._now_us()
        run_tasks(specs, cache=cache, tracer=tracer)
        assert cache.hits == 2
        spans = [s for s in tracer.spans if s.name.startswith("task:")]
        assert len(spans) == 2
        # A cached hit takes ~0s but ran *now*: its reconstructed span
        # must start inside this sweep, not before the tracer existed.
        for s in spans:
            assert s.start_us >= sweep_start - 1e4
            assert s.duration_us < 1e6


class TestWorkerMetrics:
    def test_side_channel_snapshot_merges_for_custom_kind(self):
        for jobs in (1, 3):
            metrics = MetricsRegistry()
            specs = [TaskSpec("t-obs", (str(i),)) for i in range(3)]
            with CompilerSession(jobs=jobs, metrics=metrics) as session:
                session.run_tasks(specs)
            for i in range(3):
                assert metrics.counter_value(
                    "t_obs_runs", key=str(i)
                ) == 1, jobs

    def test_verify_rule_kind_reports_metrics(self):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        params = VerifyParams(
            max_type_combos=2, max_const_samples=2, max_points=50
        )
        specs = [
            TaskSpec("verify-rule", ("lifting-hand", r.name), params)
            for r in rule_set("lifting-hand").rules
        ]
        run_tasks(specs, metrics=serial)
        with WorkerPool(4) as pool:
            run_tasks(specs, metrics=parallel, pool=pool)
        ok = serial.counter_value(
            "verify_rules", ruleset="lifting-hand", outcome="ok"
        )
        assert ok > 0
        assert _counter_snapshot(serial) == _counter_snapshot(parallel)

    def test_ablation_kind_reports_pipeline_metrics(self):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        with CompilerSession(metrics=serial) as session:
            run_ablation(workload_names=WORKLOADS, session=session)
        with CompilerSession(jobs=3, metrics=parallel) as session:
            run_ablation(workload_names=WORKLOADS, session=session)
        assert any(c.name == "rule_fired" for c in serial.counters())
        assert _counter_snapshot(serial) == _counter_snapshot(parallel)


class TestCoverageAcceptance:
    def test_parallel_sweep_trace_and_snapshot(self):
        """The headline check: --jobs 4 --trace coverage produces worker
        lanes with nesting AND a merged snapshot equal to --jobs 1."""
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        with CompilerSession(metrics=serial) as session:
            run_coverage(workload_names=WORKLOADS, session=session)
        tracer = Tracer()
        with CompilerSession(
            jobs=4, metrics=parallel, tracer=tracer
        ) as session:
            run_coverage(workload_names=WORKLOADS, session=session)
        # Deterministic counters merge to exactly the serial totals.
        assert _counter_snapshot(serial) == _counter_snapshot(parallel)
        # The trace shows distinct worker lanes with preserved nesting:
        # every compile span sits under a task:coverage root.
        task_spans = [
            s for s in tracer.spans if s.name == "task:coverage"
        ]
        assert task_spans
        assert os.getpid() not in {s.pid for s in task_spans}
        compile_spans = [
            s for s in tracer.spans if s.name == "compile"
        ]
        assert compile_spans
        assert all(s.depth >= 1 for s in compile_spans)
        assert {s.pid for s in compile_spans} <= {
            s.pid for s in task_spans
        }


class TestCacheHitsCarryNoTelemetry:
    """A hit replays the task's result, never the telemetry of the run
    that first computed it."""

    OTHER_SPECS = [
        TaskSpec(
            "runtime", ("add", "arm-neon"),
            RuntimeParams(leave_one_out=True, eval_backend="closure"),
        ),
        TaskSpec(
            "verify-rule", ("lifting-hand", "lift-widening-add"),
            VerifyParams(
                max_type_combos=2, max_const_samples=2, max_points=50,
                eval_backend="closure",
            ),
        ),
    ]

    def _sweep(self, cache, metrics):
        with CompilerSession(cache=cache, metrics=metrics) as session:
            coverage = run_coverage(
                workload_names=["sobel3x3"], targets=[ARM], session=session,
            )
        return coverage, run_tasks(
            self.OTHER_SPECS, cache=cache, metrics=metrics
        )

    def test_warm_sweep_counts_hits_and_nothing_else(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cold_metrics = MetricsRegistry()
        cold, cold_other = self._sweep(cache, cold_metrics)
        assert not cold.failures
        assert all(r.ok and not r.cached for r in cold_other)
        # The executed cells did report through their observations.
        for name in ("rule_fired", "verify_rules"):
            assert any(c.value for c in cold_metrics.counters(name))
        assert any(cold_metrics.histograms("pass_seconds"))

        warm_metrics = MetricsRegistry()
        warm, warm_other = self._sweep(cache, warm_metrics)
        assert cache.hits == 3
        assert all(r.cached and r.metrics is None for r in warm_other)
        assert list(warm_metrics.histograms()) == []
        assert _counter_snapshot(warm_metrics) == sorted(
            ("fabric_tasks", (("kind", kind), ("outcome", "cached")), 1)
            for kind in ("coverage", "runtime", "verify-rule")
        )
        # The coverage rows are the cold run's, replayed unchanged.
        assert warm.to_json() == cold.to_json()
        assert {r.name: r.fires for r in warm.rows}["arm-uabd"] == 2
