"""Scheduler contract: ordering, serial default, failure isolation."""

import os
import sys
import threading
import time

import pytest

from repro.fabric import TaskSpec, WorkerPool, run_tasks
from repro.fabric.scheduler import job_kind
from repro.observe import MetricsRegistry, Tracer
from repro.session import CompilerSession


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
        with WorkerPool(3) as pool:
            results = run_tasks(specs, pool=pool)
        assert [r.value for r in results] == [str(i) for i in range(6)]
        assert all(r.ok for r in results)

    def test_jobs_one_runs_inline(self):
        # No pool (a session at jobs=1 has none): the task runs here.
        results = run_tasks([TaskSpec("t-echo", ("a", "b"))])
        assert results[0].value == ["a", "b"]
        assert results[0].pid == os.getpid()

    def test_parallel_equals_serial(self):
        specs = [TaskSpec("t-jitter", (str(i),)) for i in range(5)]
        serial = run_tasks(specs)
        with WorkerPool(4) as pool:
            parallel = run_tasks(specs, pool=pool)
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
        results = run_tasks(specs)
        assert [r.ok for r in results] == [True, False, True]
        assert "poisoned cell" in results[1].error
        assert results[0].value == "ok1" and results[2].value == "ok2"

    def test_raising_task_fails_alone_in_pool(self):
        specs = [
            TaskSpec("t-fail", ("ok1",)),
            TaskSpec("t-fail", ("bad",)),
            TaskSpec("t-fail", ("ok2",)),
        ]
        with WorkerPool(2) as pool:
            results = run_tasks(specs, pool=pool)
        assert [r.ok for r in results] == [True, False, True]
        assert "ValueError" in results[1].error

    def test_worker_crash_fails_only_its_cell(self):
        # os._exit kills the worker abruptly; the pool breaks, collateral
        # tasks are retried in one-worker pools, only the crasher stays
        # failed.
        specs = [
            TaskSpec("t-crash", ("a",)),
            TaskSpec("t-crash", ("crash",)),
            TaskSpec("t-crash", ("b",)),
            TaskSpec("t-crash", ("c",)),
        ]
        with WorkerPool(2) as pool:
            results = run_tasks(specs, pool=pool)
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
        run_tasks(specs, metrics=metrics)
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
        run_tasks(specs, tracer=tracer)
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
        with CompilerSession(jobs=jobs, tracer=tracer) as session:
            results = session.run_tasks(
                [TaskSpec("t-fail", (k,)) for k in keys]
            )
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
        specs = [TaskSpec("t-jitter", (str(i),)) for i in range(6)]
        oneshot = run_tasks(specs)
        with WorkerPool(2) as pool:
            pooled = run_tasks(specs, pool=pool)
        assert [(r.ok, r.value) for r in pooled] == [
            (r.ok, r.value) for r in oneshot
        ]

    def test_pool_survives_a_worker_crash(self):
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

    def test_lone_task_runs_in_a_worker(self):
        # A pool means no task body runs in the caller's process, even
        # one alone (a service's event loop stays free).
        with WorkerPool(2) as pool:
            (res,) = run_tasks([TaskSpec("t-echo", ("x",))], pool=pool)
        assert res.ok and res.pid != os.getpid()

    def test_one_breakage_is_rebuilt_once(self):
        # Threads sharing a pool all see the same breakage; only the
        # first rebuild may replace the executor, or a later one would
        # cancel work already submitted to the first's replacement.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(2) as pool:
                broken = pool.executor
                made = []
                make = pool._make_executor

                def counted_make():
                    make()
                    made.append(pool._executor)

                pool._make_executor = counted_make
                start = threading.Barrier(4)

                def rebuild():
                    start.wait()
                    pool.rebuild(broken)

                threads = [threading.Thread(target=rebuild)
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert made == [pool.executor]
                assert pool.executor.submit(os.getpid).result(
                    timeout=30) != os.getpid()
        finally:
            sys.setswitchinterval(switch)

    def test_task_sent_to_a_just_broken_executor_still_runs(self):
        # Another thread's task broke the shared executor and the
        # rebuild has not happened yet: a call that submits now retries
        # its task and leaves a rebuilt pool behind.
        from concurrent.futures.process import BrokenProcessPool

        with WorkerPool(2) as pool:
            broken = pool.executor
            with pytest.raises(BrokenProcessPool):
                broken.submit(os._exit, 13).result(timeout=30)
            (res,) = run_tasks([TaskSpec("t-echo", ("x",))], pool=pool)
            assert res.ok and pool.executor is not broken

    def test_shut_down_pool_refuses_use(self):
        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.executor

    def test_pool_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
