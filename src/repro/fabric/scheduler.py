"""Deterministic fan-out scheduler over ``ProcessPoolExecutor``.

The unit of work is a :class:`TaskSpec` — a *descriptor*, not a payload:
``(job kind, key strings, parameters)``.  Workers look the kind up in
the job registry (:mod:`repro.fabric.jobs`) and rebuild the actual
inputs (workload expressions, rule objects) from their own process-local
registries, so nothing interned or closure-laden is ever pickled across
the process boundary.

Guarantees:

* **Determinism** — results are merged in input order no matter which
  worker finished first; a ``jobs=N`` sweep produces the same result
  list as ``jobs=1``.
* **Serial default** — ``jobs=1`` runs every task inline in the calling
  process: no pool, no pickling, byte-identical to the pre-fabric code
  paths.
* **Failure isolation** — a task that raises (or whose worker process
  dies) yields a failed :class:`TaskResult`; the sweep continues.  A
  broken pool is rebuilt for the tasks it took down, so one poisoned
  cell cannot fail its neighbours.
* **Caching** — when a :class:`~repro.fabric.cache.ResultCache` is
  attached, cacheable kinds are looked up before dispatch and stored
  after success; hits skip execution entirely, and each hit's value is
  decoded afresh from the cache's text.
* **Telemetry** — one channel, *cross-process*.  When the sweep
  observes (a metrics registry or a live tracer is attached), every job
  body is called as ``fn(spec, obs)`` with its own
  :class:`~repro.observe.Observation`: a private registry whose
  snapshot travels home in :attr:`TaskResult.metrics` and is merged
  into the attached registry, and — only when tracing — a real worker
  :class:`~repro.observe.Tracer` whose span list ships back in
  :attr:`TaskResult.spans` and is re-anchored onto the parent timeline
  (per-worker ``pid`` lanes, nesting preserved).  Unobserved sweeps
  pass ``obs=None``.  The return value is the result only, so a cache
  hit replays data, never telemetry: it adds one ``fabric_tasks``
  counter and a synthetic zero-length span anchored at the wall-clock
  instant the hit resolved.  Executed tasks also land in
  ``fabric_task_seconds`` histograms and ``fabric_tasks`` counters.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import typing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "JobKind",
    "JobParams",
    "TaskSpec",
    "TaskResult",
    "WorkerPool",
    "job_kind",
    "get_job_kind",
    "run_tasks",
    "lookup_task",
    "execute_tasks",
    "account_result",
    "param",
]

#: how many pool breakages run_tasks tolerates before giving up on retry
MAX_POOL_REBUILDS = 3


class JobParams:
    """Base of a job kind's params: each subclass becomes a frozen
    dataclass whose fields are checked when an instance is built, each
    against its annotated type (``bool`` is not an ``int``) and the
    choices and minimum of :func:`param`.  A bad value raises
    ``TypeError`` or ``ValueError`` naming the field."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclass(frozen=True)(cls)
        hints = typing.get_type_hints(cls)
        # (name, type, choices, minimum) of each field, read once
        cls._checks = tuple(
            (f.name, typing.get_origin(hints[f.name]) or hints[f.name],
             f.metadata.get("choices", ()), f.metadata.get("minimum"))
            for f in fields(cls)
        )

    def __post_init__(self) -> None:
        for name, kind, choices, minimum in self._checks:
            value = getattr(self, name)
            if not isinstance(value, kind) or (
                isinstance(value, bool) and kind is not bool
            ):
                raise TypeError(f"param {name!r} must be {kind.__name__}, "
                                f"got {type(value).__name__}")
            if choices and value not in choices:
                raise ValueError(f"param {name!r}: unknown value {value!r} "
                                 f"(expected one of {sorted(choices)})")
            if minimum is not None and value < minimum:
                raise ValueError(f"param {name!r} must be at least "
                                 f"{minimum}, got {value}")


def param(default: Any = MISSING, *, factory: Any = MISSING,
          choices: tuple = (), minimum: Optional[int] = None) -> Any:
    """A :class:`JobParams` field: its default (``factory`` is called
    when the params are built) and its checks."""
    return field(default=default, default_factory=factory,
                 metadata={"choices": choices, "minimum": minimum})


@dataclass(frozen=True)
class TaskSpec:
    """One cell of a sweep: ``(kind, key, params)`` — all picklable.

    ``key`` names the cell (e.g. ``("sobel3x3", "arm-neon")``); ``params``
    is the kind's :class:`JobParams` (sample budgets, flags), or ``None``
    for a kind that takes none.  Workers rebuild the real inputs from
    these names.
    """

    kind: str
    key: Tuple[str, ...]
    params: Optional[JobParams] = None


@dataclass
class TaskResult:
    """Outcome of one task, in input order."""

    spec: TaskSpec
    ok: bool
    value: Any = None
    error: Optional[str] = None
    #: wall time of the task body, off its ``task:<kind>`` span (0.0
    #: for cache hits)
    seconds: float = 0.0
    #: pid of the process that executed the task
    pid: int = 0
    #: True when the value came from the result cache
    cached: bool = False
    #: a cache hit's canonical JSON text (``value`` is then decoded
    #: from it by :func:`run_tasks`, never shared with the cache)
    encoded: Optional[str] = None
    #: ``time.time()`` when the task body started (cache hits: resolved)
    started_s: float = 0.0
    #: serialized worker tracer payload (only when the sweep traces)
    spans: Optional[Dict[str, Any]] = None
    #: worker metrics snapshot (only when the sweep collects metrics)
    metrics: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class JobKind:
    """A registered task kind: an executor plus its cache contract."""

    name: str
    #: ``fn(spec, obs)`` -> the task's JSON-ish result; ``obs`` is the
    #: task's :class:`~repro.observe.Observation`, or ``None`` when the
    #: sweep is unobserved
    fn: Callable[[TaskSpec, Any], Any]
    #: content components of the cache key (beyond kind/version/params);
    #: a kind without them is never cached
    cache_parts: Optional[Callable[[TaskSpec], Tuple[str, ...]]] = None
    #: the kind's :class:`JobParams` class (``None``: it takes none)
    params: Optional[type] = None


_JOB_KINDS: Dict[str, JobKind] = {}


def job_kind(
    name: str,
    cache_parts: Optional[Callable[[TaskSpec], Tuple[str, ...]]] = None,
    params: Optional[type] = None,
):
    """Decorator registering a job-kind executor under ``name``."""

    def register(fn: Callable[[TaskSpec, Any], Any]):
        _JOB_KINDS[name] = JobKind(
            name=name, fn=fn, cache_parts=cache_parts, params=params
        )
        return fn

    return register


def _ensure_registered() -> None:
    """Import the built-in job kinds (idempotent; needed in spawn-start
    workers, which begin with a bare interpreter)."""
    from . import jobs  # noqa: F401  (registration side effects)


def get_job_kind(name: str) -> JobKind:
    """Look up a registered kind; raises ``KeyError`` with the options."""
    # the daemon looks kinds up per request: import only on a miss
    if name in _JOB_KINDS:
        return _JOB_KINDS[name]
    _ensure_registered()
    try:
        return _JOB_KINDS[name]
    except KeyError:
        raise KeyError(
            f"unknown job kind {name!r}; registered: {sorted(_JOB_KINDS)}"
        ) from None


def _execute(
    spec: TaskSpec,
    observe_metrics: bool = False,
    observe_spans: bool = False,
) -> Tuple[str, Any, float, int, float, Optional[dict], Optional[dict]]:
    """Run one task body; never raises (errors become values).

    This is the function submitted to worker processes, so its return
    value must be picklable: ``(status, value, seconds, pid, started_s,
    span_payload, metrics_snapshot)`` — job kinds return JSON-ish data,
    failures return the formatted exception.  The task's clock is its
    ``task:<kind>`` root span, on a private :class:`Tracer`: ``seconds``
    and ``started_s`` are read off it.  When observing, the body
    receives its own :class:`~repro.observe.Observation` (fresh
    registry; the span tracer only when the sweep traces) whose
    serialized state rides home in the last two slots.
    """
    _ensure_registered()
    from ..observe import NullTracer, Observation, Tracer

    tracer = Tracer()
    obs = (
        Observation(tracer=tracer if observe_spans else NullTracer(),
                    rule_events=False)
        if (observe_metrics or observe_spans)
        else None
    )
    with tracer.span(f"task:{spec.kind}", key="/".join(spec.key)) as root:
        try:
            status, out = "ok", _JOB_KINDS[spec.kind].fn(spec, obs)
        except KeyboardInterrupt:  # pragma: no cover - ^C kills the sweep
            raise
        except BaseException as exc:
            status, out = "error", f"{type(exc).__name__}: {exc}"
    # Stamp the outcome on the closed root span so the merged timeline
    # can color failures without a side table.
    root.args["outcome"] = status if status == "ok" else "failed"
    root.args["pid"] = os.getpid()
    seconds = root.duration_us / 1e6
    started_s = tracer.epoch_s + root.start_us / 1e6
    span_payload = tracer.to_payload() if observe_spans else None
    snapshot = (
        obs.metrics.to_dict()
        if observe_metrics and len(obs.metrics)
        else None
    )
    return (status, out, seconds, os.getpid(), started_s, span_payload,
            snapshot)


def _to_result(
    spec: TaskSpec,
    raw: Tuple[str, Any, float, int, float, Optional[dict], Optional[dict]],
) -> TaskResult:
    status, value, seconds, pid, started_s, spans, snapshot = raw
    if status == "ok":
        return TaskResult(spec, ok=True, value=value, seconds=seconds,
                          pid=pid, started_s=started_s, spans=spans,
                          metrics=snapshot)
    return TaskResult(spec, ok=False, error=value, seconds=seconds,
                      pid=pid, started_s=started_s, spans=spans,
                      metrics=snapshot)


class WorkerPool:
    """A persistent, reusable worker pool for repeated ``run_tasks`` calls.

    ``run_tasks`` historically built (and tore down) a fresh
    ``ProcessPoolExecutor`` per call — fine for one-shot sweeps, wasteful
    for a long-lived service dispatching many small batches.  A
    ``WorkerPool`` owns one executor across calls; pass it as
    ``run_tasks(..., pool=...)`` and the scheduler fans out over it
    without shutting it down afterwards.  One-shot paths (no ``pool``)
    keep the per-call executor, byte-identically.

    **Warm fork**: ``warm_up`` (optional) runs in the parent *before* the
    first worker exists.  On platforms with the ``fork`` start method
    (which this pool requests explicitly when available) workers are
    forked lazily on first submit, so they inherit whatever the warm-up
    built — interned expression arenas, discrimination-tree rule
    indexes, memoized programs — instead of rebuilding it per process.

    After a catastrophic worker death (``BrokenProcessPool``) the
    executor is unusable; :meth:`rebuild` replaces it (re-running
    ``warm_up`` is unnecessary — the parent stays warm, and fresh forks
    re-inherit its state).
    """

    def __init__(
        self,
        jobs: int,
        warm_up: Optional[Callable[[], Any]] = None,
    ):
        if jobs < 1:
            raise ValueError(f"pool needs at least one worker, got {jobs}")
        self.jobs = jobs
        self._warm_up = warm_up
        if warm_up is not None:
            warm_up()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._make_executor()

    def _make_executor(self) -> None:
        ctx = None
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=ctx
        )

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor (raises if the pool has been shut down)."""
        if self._executor is None:
            raise RuntimeError("worker pool has been shut down")
        return self._executor

    def rebuild(self) -> None:
        """Replace a broken executor with a fresh one (same size)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._make_executor()

    def shutdown(self, wait: bool = True) -> None:
        """Release the workers; the pool is unusable afterwards."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._executor is None else "live"
        return f"<WorkerPool jobs={self.jobs} {state}>"


def run_tasks(
    specs: Sequence[TaskSpec],
    jobs: int = 1,
    cache=None,
    metrics=None,
    tracer=None,
    pool: Optional[WorkerPool] = None,
) -> List[TaskResult]:
    """Run every task and return results **in input order**.

    ``jobs=1`` (default) executes inline; ``jobs>1`` fans the cache
    misses out over a worker pool.  ``cache`` is an optional
    :class:`~repro.fabric.cache.ResultCache`; ``metrics``/``tracer`` are
    optional observe-layer sinks — attaching either hands every executed
    task its own :class:`~repro.observe.Observation`, whose metric
    snapshot and span list are merged back here (see the module
    docstring).

    ``pool`` is an optional persistent :class:`WorkerPool`: when given
    (and sized above one worker), fan-out reuses its executor instead of
    building a fresh one, and leaves it running afterwards — the
    long-lived-service path.  Without a pool the behaviour is exactly
    the historical per-call executor.

    The three phases are public so a service can answer each request
    as soon as its own phase allows: :func:`lookup_task`,
    :func:`execute_tasks` and :func:`account_result`.
    """
    specs = list(specs)
    results: List[Optional[TaskResult]] = [None] * len(specs)

    # -- phase 1: resolve cache hits ----------------------------------
    misses: List[Tuple[TaskSpec, Optional[str]]] = []
    miss_index: List[int] = []
    for i, spec in enumerate(specs):
        hit, ckey = lookup_task(spec, cache)
        if hit is None:
            misses.append((spec, ckey))
            miss_index.append(i)
        else:
            hit.value = json.loads(hit.encoded)
            results[i] = hit

    # -- phase 2: execute + persist misses ----------------------------
    def collect(j: int, res: TaskResult) -> None:
        results[miss_index[j]] = res

    execute_tasks(
        misses, collect, jobs=jobs, cache=cache,
        observe_metrics=metrics is not None,
        observe_spans=tracer is not None and tracer.enabled,
        pool=pool,
    )

    # -- phase 3: account, in input order -----------------------------
    for res in results:
        assert res is not None
        account_result(res, metrics, tracer)
    return results  # type: ignore[return-value]


def lookup_task(
    spec: TaskSpec, cache
) -> Tuple[Optional[TaskResult], Optional[str]]:
    """Resolve one task against the result cache (phase 1).

    The one definition of a task's cache key: the kind, the key, the
    params' field names and values, and the kind's content parts.
    Returns ``(hit, None)`` when the cache holds the result, else
    ``(None, key)`` — ``key`` is ``None`` without a cache or for an
    uncacheable kind — to pass on to :func:`execute_tasks`, so a miss
    is never looked up twice.  A hit carries the result's canonical
    text in ``encoded`` and no ``value``: a daemon splices the text
    into its reply, and a caller that wants the value decodes it.
    Raises ``KeyError`` for an unregistered kind.
    """
    kind = get_job_kind(spec.kind)
    if cache is None or kind.cache_parts is None:
        return None, None
    ckey = cache.key(
        spec.kind,
        repr(spec.key),
        repr(vars(spec.params)) if spec.params is not None else "",
        *kind.cache_parts(spec),
    )
    text = cache.get_text(spec.kind, ckey)
    if text is None:
        return None, ckey
    return TaskResult(
        spec, ok=True, encoded=text, cached=True,
        pid=os.getpid(), started_s=time.time(),
    ), None


def execute_tasks(
    misses: Sequence[Tuple[TaskSpec, Optional[str]]],
    on_result: Callable[[int, TaskResult], None],
    jobs: int = 1,
    cache=None,
    observe_metrics: bool = False,
    observe_spans: bool = False,
    pool: Optional[WorkerPool] = None,
) -> None:
    """Execute cache misses and persist their results (phase 2).

    ``misses`` pairs each spec with the key :func:`lookup_task` gave it.
    As each task finishes — in completion order, not input order — a
    successful value is stored under its key, and then ``on_result(i,
    result)`` is called with the miss's index, so a caller can answer
    one task while the others still run, and a repeat sent after that
    answer is a hit.  ``jobs>1`` (or a ``pool``) fans out over worker
    processes when there is more than one miss; the ``observe_*`` flags
    hand each task its own :class:`~repro.observe.Observation`.
    """

    def finish(i: int, res: TaskResult) -> None:
        ckey = misses[i][1]
        if cache is not None and ckey is not None and res.ok:
            cache.put(res.spec.kind, ckey, res.value)
        on_result(i, res)

    if pool is not None:
        jobs = pool.jobs
    specs = [spec for spec, _ckey in misses]
    if jobs <= 1 or len(specs) <= 1:
        for i, spec in enumerate(specs):
            finish(i, _to_result(
                spec, _execute(spec, observe_metrics, observe_spans)
            ))
    else:
        _run_pool(specs, jobs, finish, observe_metrics, observe_spans,
                  pool=pool)


def account_result(res: TaskResult, metrics=None, tracer=None) -> None:
    """Record one finished task on the caller's sinks (phase 3).

    Adds its ``fabric_tasks`` count (outcome ``cached``, ``ok`` or
    ``failed``) and, when it executed, its ``fabric_task_seconds``
    sample, and merges its worker metrics; on a live ``tracer`` it lays
    down the worker's spans, or a synthetic one (:func:`_record_span`)
    for a result that carries none, such as a cache hit.
    """
    if metrics is not None:
        outcome = "cached" if res.cached else ("ok" if res.ok else "failed")
        metrics.counter(
            "fabric_tasks", kind=res.spec.kind, outcome=outcome
        ).inc()
        if not res.cached:
            metrics.histogram(
                "fabric_task_seconds", kind=res.spec.kind
            ).observe(res.seconds)
        if res.metrics is not None:
            metrics.merge_snapshot(res.metrics)
    if tracer is not None and tracer.enabled:
        if res.spans is not None:
            tracer.merge_payload(res.spans)
        else:
            _record_span(tracer, res)


def _record_span(tracer, res: TaskResult) -> None:
    """Re-emit one span-less task result on the caller's timeline.

    Real execution ships worker-side spans in :attr:`TaskResult.spans`;
    this fallback covers results that never ran a tracer — cache hits
    and legacy results — anchoring the span at the task's recorded
    wall-clock start (``started_s``), so even reconstructed spans sit
    where the work actually happened instead of stacking up at merge
    time.
    """
    from ..observe.tracer import Span

    start_us = (
        tracer.wall_us(res.started_s)
        if res.started_s
        else tracer._now_us() - res.seconds * 1e6
    )
    tracer.spans.append(
        Span(
            name=f"task:{res.spec.kind}",
            start_us=start_us,
            depth=0,
            duration_us=res.seconds * 1e6,
            args={
                "key": "/".join(res.spec.key),
                "pid": res.pid,
                "outcome": "cached" if res.cached
                else ("ok" if res.ok else "failed"),
            },
        )
    )


def _run_pool(
    specs: List[TaskSpec],
    jobs: int,
    finish: Callable[[int, TaskResult], None],
    observe_metrics: bool = False,
    observe_spans: bool = False,
    pool: Optional[WorkerPool] = None,
) -> None:
    """Fan tasks out over a worker pool, isolating crashes.

    ``finish(i, result)`` is called for ``specs[i]`` as soon as its
    result is final.  Python-level exceptions never surface here
    (``_execute`` catches them in the worker); only an abrupt worker
    death (segfault, ``os._exit``) breaks the pool.  When that happens
    every in-flight future fails collaterally, so each affected task is
    retried once in a fresh single-worker pool — the genuinely poisonous
    task fails again (and is reported failed), innocent neighbours
    succeed.

    With a persistent ``pool`` the executor is borrowed, not owned: it
    is left running on exit, and a breakage triggers
    :meth:`WorkerPool.rebuild` so the *next* batch gets a healthy pool
    (the retry path below already covers this batch's casualties).
    """
    broken: List[int] = []
    executor_cm = (
        nullcontext(pool.executor)
        if pool is not None
        else ProcessPoolExecutor(max_workers=jobs)
    )
    with executor_cm as executor:
        futures = {
            executor.submit(
                _execute, spec, observe_metrics, observe_spans
            ): i
            for i, spec in enumerate(specs)
        }
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in done:
                i = futures[fut]
                try:
                    res = _to_result(specs[i], fut.result())
                except BrokenProcessPool:
                    broken.append(i)
                    continue
                except Exception as exc:  # pragma: no cover - pickling
                    res = TaskResult(
                        specs[i], ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                finish(i, res)
    if broken and pool is not None:
        pool.rebuild()

    rebuilds = 0
    for i in sorted(broken):
        if rebuilds >= MAX_POOL_REBUILDS:
            finish(i, TaskResult(
                specs[i], ok=False,
                error="worker pool broken (retry budget exhausted)",
            ))
            continue
        with ProcessPoolExecutor(max_workers=1) as retry_pool:
            try:
                res = _to_result(
                    specs[i],
                    retry_pool.submit(
                        _execute, specs[i], observe_metrics, observe_spans
                    ).result(),
                )
            except Exception as exc:
                rebuilds += 1
                res = TaskResult(
                    specs[i], ok=False,
                    error=f"worker process died: {type(exc).__name__}",
                )
            finish(i, res)
