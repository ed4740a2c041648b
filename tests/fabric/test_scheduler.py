"""Scheduler contract: ordering, serial default, failure isolation."""

import os
import time

import pytest

from repro.fabric import TaskSpec, run_tasks
from repro.fabric.scheduler import job_kind
from repro.observe import MetricsRegistry, Tracer


# Test-only job kinds.  Registered at import time, so fork-started
# workers inherit them; the t- prefix keeps them out of real sweeps.
@job_kind("t-echo")
def _t_echo(spec, obs):
    return list(spec.key)


@job_kind("t-jitter")
def _t_jitter(spec, obs):
    # Even-indexed tasks finish last: completion order != input order.
    if int(spec.key[0]) % 2 == 0:
        time.sleep(0.05)
    return spec.key[0]


@job_kind("t-fail")
def _t_fail(spec, obs):
    if spec.key[0] == "bad":
        raise ValueError("poisoned cell")
    return spec.key[0]


@job_kind("t-tracing")
def _t_tracing(spec, obs):
    return obs.tracer.enabled


@job_kind("t-crash")
def _t_crash(spec, obs):
    if spec.key[0] == "crash":
        os._exit(13)  # kill the worker without Python cleanup
    return spec.key[0]


class TestOrderingAndSerialDefault:
    def test_results_merge_in_input_order(self):
        specs = [TaskSpec("t-jitter", (str(i),)) for i in range(6)]
        results = run_tasks(specs, jobs=3)
        assert [r.value for r in results] == [str(i) for i in range(6)]
        assert all(r.ok for r in results)

    def test_jobs_one_runs_inline(self):
        results = run_tasks([TaskSpec("t-echo", ("a", "b"))], jobs=1)
        assert results[0].value == ["a", "b"]
        assert results[0].pid == os.getpid()

    def test_single_pending_task_never_pays_for_a_pool(self):
        # jobs>1 with one task still runs inline (same pid).
        results = run_tasks([TaskSpec("t-echo", ("x",))], jobs=4)
        assert results[0].pid == os.getpid()

    def test_parallel_equals_serial(self):
        specs = [TaskSpec("t-jitter", (str(i),)) for i in range(5)]
        serial = run_tasks(specs, jobs=1)
        parallel = run_tasks(specs, jobs=4)
        assert [(r.ok, r.value) for r in serial] == [
            (r.ok, r.value) for r in parallel
        ]

    def test_unknown_kind_names_the_options(self):
        with pytest.raises(KeyError, match="no-such-kind"):
            run_tasks([TaskSpec("no-such-kind", ("x",))])


class TestFailureIsolation:
    def test_raising_task_fails_alone_inline(self):
        specs = [
            TaskSpec("t-fail", ("ok1",)),
            TaskSpec("t-fail", ("bad",)),
            TaskSpec("t-fail", ("ok2",)),
        ]
        results = run_tasks(specs, jobs=1)
        assert [r.ok for r in results] == [True, False, True]
        assert "poisoned cell" in results[1].error
        assert results[0].value == "ok1" and results[2].value == "ok2"

    def test_raising_task_fails_alone_in_pool(self):
        specs = [
            TaskSpec("t-fail", ("ok1",)),
            TaskSpec("t-fail", ("bad",)),
            TaskSpec("t-fail", ("ok2",)),
        ]
        results = run_tasks(specs, jobs=2)
        assert [r.ok for r in results] == [True, False, True]
        assert "ValueError" in results[1].error

    def test_worker_crash_fails_only_its_cell(self):
        # os._exit kills the worker abruptly; the pool breaks, collateral
        # tasks are retried in fresh pools, only the crasher stays failed.
        specs = [
            TaskSpec("t-crash", ("a",)),
            TaskSpec("t-crash", ("crash",)),
            TaskSpec("t-crash", ("b",)),
            TaskSpec("t-crash", ("c",)),
        ]
        results = run_tasks(specs, jobs=2)
        by_key = {r.spec.key[0]: r for r in results}
        assert not by_key["crash"].ok
        assert all(by_key[k].ok for k in ("a", "b", "c"))
        assert [r.spec.key[0] for r in results] == ["a", "crash", "b", "c"]


class TestTelemetry:
    def test_metrics_counters_and_histograms(self):
        metrics = MetricsRegistry()
        specs = [
            TaskSpec("t-fail", ("ok1",)),
            TaskSpec("t-fail", ("bad",)),
        ]
        run_tasks(specs, jobs=1, metrics=metrics)
        assert metrics.counter_value(
            "fabric_tasks", kind="t-fail", outcome="ok"
        ) == 1
        assert metrics.counter_value(
            "fabric_tasks", kind="t-fail", outcome="failed"
        ) == 1
        hist = metrics.histogram("fabric_task_seconds", kind="t-fail")
        assert hist.count == 2

    def test_tracer_gets_one_span_per_task(self):
        tracer = Tracer()
        specs = [TaskSpec("t-echo", (str(i),)) for i in range(3)]
        run_tasks(specs, jobs=1, tracer=tracer)
        spans = [s for s in tracer.spans if s.name == "task:t-echo"]
        assert len(spans) == 3
        assert all(s.args["outcome"] == "ok" for s in spans)
        assert all(s.args["pid"] == os.getpid() for s in spans)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_seconds_are_read_off_the_task_span(self, jobs):
        # One clock: an executed task's seconds and start are its
        # task:<kind> span's, exactly as the merged trace shows them.
        tracer = Tracer()
        keys = ["a", "bad", "b", "c", "d"]
        results = run_tasks([TaskSpec("t-fail", (k,)) for k in keys],
                            jobs=jobs, tracer=tracer)
        spans = {s.args["key"]: s for s in tracer.spans
                 if s.name == "task:t-fail"}
        assert sorted(spans) == sorted(keys)
        for res in results:
            span = spans[res.spec.key[0]]
            assert res.seconds == span.duration_us / 1e6
            assert tracer.wall_us(res.started_s) == pytest.approx(
                span.start_us, abs=1.0
            )

    def test_body_traces_only_when_the_sweep_does(self):
        spec = TaskSpec("t-tracing", ("x",))
        (untraced,) = run_tasks([spec], metrics=MetricsRegistry())
        (traced,) = run_tasks([spec], tracer=Tracer())
        assert (untraced.value, traced.value) == (False, True)


class TestWorkerPool:
    """The persistent pool behind ``run_tasks(..., pool=...)``."""

    def test_pool_is_reused_across_calls(self):
        from repro.fabric import WorkerPool

        specs = [TaskSpec("t-echo", (str(i),)) for i in range(4)]
        with WorkerPool(2) as pool:
            first_executor = pool.executor
            r1 = run_tasks(specs, pool=pool)
            r2 = run_tasks(specs, pool=pool)
            # Same executor object both times — no per-call rebuild.
            assert pool.executor is first_executor
        assert [r.value for r in r1] == [r.value for r in r2]
        assert all(r.ok for r in r1 + r2)

    def test_pooled_results_equal_one_shot(self):
        from repro.fabric import WorkerPool

        specs = [TaskSpec("t-jitter", (str(i),)) for i in range(6)]
        oneshot = run_tasks(specs, jobs=2)
        with WorkerPool(2) as pool:
            pooled = run_tasks(specs, pool=pool)
        assert [(r.ok, r.value) for r in pooled] == [
            (r.ok, r.value) for r in oneshot
        ]

    def test_pool_size_overrides_the_jobs_argument(self):
        from repro.fabric import WorkerPool

        specs = [TaskSpec("t-echo", (str(i),)) for i in range(4)]
        with WorkerPool(2) as pool:
            results = run_tasks(specs, jobs=1, pool=pool)
        # jobs=1 would have run inline; the pool's size wins.
        assert any(r.pid != os.getpid() for r in results)

    def test_warm_up_runs_once_in_the_parent(self):
        from repro.fabric import WorkerPool

        calls = []
        with WorkerPool(2, warm_up=lambda: calls.append(os.getpid())):
            pass
        assert calls == [os.getpid()]

    def test_pool_survives_a_worker_crash(self):
        from repro.fabric import WorkerPool

        with WorkerPool(2) as pool:
            crashed = run_tasks(
                [TaskSpec("t-crash", ("crash",)),
                 TaskSpec("t-crash", ("x",))],
                pool=pool,
            )
            by_key = {r.spec.key[0]: r for r in crashed}
            assert not by_key["crash"].ok
            assert by_key["x"].ok
            # The executor was rebuilt in place: the same pool handle
            # keeps dispatching (the daemon's crash-resilience story).
            again = run_tasks(
                [TaskSpec("t-echo", (str(i),)) for i in range(3)],
                pool=pool,
            )
            assert all(r.ok for r in again)

    def test_shut_down_pool_refuses_use(self):
        from repro.fabric import WorkerPool

        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.executor

    def test_pool_needs_at_least_one_worker(self):
        from repro.fabric import WorkerPool

        with pytest.raises(ValueError):
            WorkerPool(0)
