"""serve-mixed: the ``python -m repro serve`` daemon under a mixed load.

The load generator is this one process, with at most two threads (sender
and receiver), on one unix-socket connection (a
:class:`repro.serve.client.ServeClient`) to ``repro serve --jobs 1
--cache-dir <tmp> --metrics-port 0``:

1. ``setup_s`` — the daemon is spawned three times pinned to each of
   two vCPUs (:func:`suite.time_setups`); a sample is spawn until the
   first ``ping`` reply.  One more daemon serves the run, pinned to the
   vCPU that probed faster; the load generator runs on the other one.
2. Prefill (untimed) — the 192 compile/evaluate keys are requested once,
   so the cache holds them.
3. The request mix — 95% cache hits drawn uniformly over the prefilled
   keys, 5% ``verify-rule`` requests with a seed not used before, which
   miss, compute and write the cache.  Verify time ranges from 1 ms to
   200 ms by rule, so the verify requests take the 64 lifting rules in
   seeded cycles that hold each rule once, and a block of
   :data:`suite.CYCLE_REQUESTS` requests holds exactly one cycle.
4. Untraced run — whole blocks in a closed loop that keeps
   :data:`PIPELINE_DEPTH` requests outstanding, so the daemon's batcher
   coalesces them and a hit waits for any verification in its batch;
   scaled to reference speed and summarised like the in-process
   workloads (:func:`suite.closed_loop_metrics`).
5. Traced run — the open-loop ladder instead: seeded Poisson arrivals at
   each rate of :data:`suite.LADDER_RPS`, drained fully between steps,
   each request timed from when it was due, so a stalled generator
   charges its lateness to the daemon and reports it as
   ``loadgen.lag_p99_ms``.  Its p90 at a fixed rate moves by a quarter
   between runs of one seed on two shared vCPUs, which is why the
   ladder's numbers (p90 per rate, the highest rate within the SLO, the
   reply rate when overloaded) are per-layer and unbounded, and the
   bounded end-to-end numbers come from the closed loop.

Every reply is checked: compile listings byte-identical to the in-process
:func:`repro.session.compile_listing`, evaluate replies verified and with
the in-process modelled cycles, verify-rule verdicts ok.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
)

from spans import SpanRecorder, self_times
from suite import (
    ALL_TARGETS,
    CYCLE_REQUESTS,
    LADDER_RPS,
    PAPER_TARGETS,
    VERIFY_BACKEND,
    VERIFY_SETTINGS,
    VERIFY_SHARE,
    WORKLOADS,
    HostSpeed,
    StepResult,
    child_env,
    closed_loop_metrics,
    max_rate_under_slo,
    percentile,
    pin_to,
    probe_on,
    step_for,
    time_setups,
)
from repro.serve.client import ServeClient, ServeError

#: how long the daemon may go silent before the run is abandoned
REPLY_TIMEOUT_S = 30.0
#: requests the closed loop keeps outstanding on its one connection, so
#: the batcher coalesces them and hits wait behind the misses they share
#: a batch with
PIPELINE_DEPTH = 8
#: requests between two probes of the host's speed (a quarter second)
PROBE_REQUESTS = 128


# ----------------------------------------------------------------------
# open-loop schedule and lateness
# ----------------------------------------------------------------------
def poisson_schedule(rate: float, n: int,
                     rng: random.Random) -> List[float]:
    """Offsets of the first ``n`` arrivals of a Poisson process."""
    out, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def send_on_schedule(
    offsets: Sequence[float],
    send: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
):
    """Send request ``i`` when it is due; never skip a late one.

    Returns ``(start, sent)``: the schedule's time zero and each
    request's actual send time.  A send that starts late delays no due
    time — lateness is ``sent[i] - (start + offsets[i])``.
    """
    start = clock()
    sent = []
    for i, off in enumerate(offsets):
        wait = start + off - clock()
        if wait > 0:
            sleep(wait)
        sent.append(clock())
        send(i)
    return start, sent


# ----------------------------------------------------------------------
# daemon process
# ----------------------------------------------------------------------
def short_path(path: str) -> str:
    """A unix socket path fits in ~100 bytes; use the relative form
    when the absolute one is longer."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


class Daemon:
    """One ``repro serve`` child on a unix socket, with /metrics.

    ``client`` is the one connection to it.  :meth:`send` numbers the
    frames of pipelined requests (ids above those ``client`` gives its
    own calls, which never overlap them); replies are read with
    ``client.recv``.
    """

    def __init__(self, workdir: str, name: str, cache_dir: str,
                 cpu: Optional[int] = None):
        self.client = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", name,
             "--jobs", "1", "--cache-dir", cache_dir,
             "--metrics-port", "0"],
            cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            preexec_fn=None if cpu is None else pin_to(cpu),
        )
        self.metrics_url = None
        for line in self.proc.stdout:
            if line.startswith("metrics on "):
                self.metrics_url = line.split()[-1]
                break
        if self.metrics_url is None:
            self.close()
            raise RuntimeError("repro serve exited before it was ready")
        self.client = ServeClient(
            unix=short_path(os.path.join(workdir, name)),
            timeout=REPLY_TIMEOUT_S)
        self.ids = itertools.count(1_000_000_000)

    def send(self, op: str, params: dict) -> int:
        rid = next(self.ids)
        self.client.send({"id": rid, "op": op, "params": params})
        return rid

    def scrape(self) -> Dict[str, float]:
        """The /metrics text as ``{sample name with labels: value}``."""
        with urllib.request.urlopen(self.metrics_url, timeout=10) as resp:
            text = resp.read().decode()
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Ask for a graceful drain; kill if it does not end in time."""
        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except (OSError, ValueError, ServeError):
                    pass
                self.client.close()
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# requests and their known answers
# ----------------------------------------------------------------------
def reference_outputs():
    """The prefilled keys with in-process listings and cycles."""
    from repro.pipeline import pitchfork_compile
    from repro.session import compile_listing
    from repro.targets import by_name as target_by_name
    from repro.workloads import WORKLOADS as SUITE, by_name

    def compiled(w, t, strategy):
        wl = by_name(w)
        return pitchfork_compile(wl.expr, target_by_name(t),
                                 var_bounds=wl.var_bounds,
                                 lift_strategy=strategy)

    keys = []
    for strategy, targets in (("greedy", ALL_TARGETS),
                              ("egraph", PAPER_TARGETS)):
        for w in SUITE:
            for t in targets:
                params = {"workload": w, "target": t,
                          "lift_strategy": strategy}
                keys.append(("compile", params,
                             compile_listing(compiled(w, t, strategy), w)))
    for w in SUITE:
        for t in PAPER_TARGETS:
            keys.append(("evaluate", {"workload": w, "target": t},
                         compiled(w, t, "greedy").cost().total))
    return keys


def lifting_rules():
    from repro.lifting import HAND_RULES, SYNTHESIZED_RULES

    return ([("lifting-hand", r.name) for r in HAND_RULES]
            + [("lifting-synth", r.name) for r in SYNTHESIZED_RULES])


def reply_ok(reply: dict, op: str, expected) -> bool:
    """Whether a reply carries the request's known answer."""
    if not reply.get("ok"):
        return False
    result = reply["result"]
    if op == "compile":
        return result["listing"] == expected
    if op == "evaluate":
        return result["verified"] and result["pitchfork_cycles"] == expected
    return result["ok"] is True


class Mix:
    """The seeded request stream of ``(op, params, expected)`` frames.

    The verifier seed of a request is its rule's index plus 1000 times
    its cycle's number in the run (``cycles`` is shared by every mix of
    a run), so no request hits the cache, and the verification work of a
    cycle is the same in every run; ``rng`` orders it.
    """

    def __init__(self, keys, rules, rng: random.Random,
                 cycles: Iterator[int]):
        self.keys = keys
        self.rules = list(enumerate(rules))
        self.rng = rng
        self.cycles = cycles
        self.cycle: list = []
        self.cycle_no = 0

    def frames(self, n: int) -> list:
        """``n`` requests, ``VERIFY_SHARE`` of them verify-rule misses at
        shuffled positions, taking the rules from the current cycle."""
        n_verify = round(VERIFY_SHARE * n)
        is_verify = [True] * n_verify + [False] * (n - n_verify)
        self.rng.shuffle(is_verify)
        out = []
        for verify in is_verify:
            if not verify:
                out.append(self.keys[self.rng.randrange(len(self.keys))])
                continue
            if not self.cycle:
                self.cycle = list(self.rules)
                self.rng.shuffle(self.cycle)
                self.cycle_no = next(self.cycles)
            index, (label, rule) = self.cycle.pop()
            params = dict(VERIFY_SETTINGS, eval_backend=VERIFY_BACKEND,
                          ruleset=label, rule=rule,
                          seed=1_000_000 + 1000 * self.cycle_no + index)
            out.append(("verify-rule", params, True))
        return out


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
class ClosedLoop:
    """Whole blocks of the mix until ``seconds`` have passed, with
    :data:`PIPELINE_DEPTH` requests outstanding: each reply lets the
    next request go.

    Every :data:`PROBE_REQUESTS` requests the pipeline drains and the
    host's speed is probed on both vCPUs, the daemon's and the load
    generator's, since a request's time is spent on both; latencies and
    busy time are scaled by the mean of the probes either side, like the
    in-process workloads'.  Scaled by probes taken only once a block
    (2 s), the spread between runs of one commit was worse than that of
    wall time; with probes every 128 requests (a quarter second) it fell
    from 11-24% to 5-13%.
    """

    def __init__(self, daemon: Daemon, mix: Mix, cpus: Iterable[int]):
        self.daemon = daemon
        self.mix = mix
        cpus = tuple(cpus)
        self.speed = HostSpeed(
            lambda: statistics.mean(probe_on(cpu) for cpu in cpus))
        #: (send time, send-to-reply seconds) per request
        self.samples: list = []
        #: (start, wall seconds) per stretch between two probes
        self.stretches: list = []
        self.blocks = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, min_blocks: int) -> "ClosedLoop":
        start = time.perf_counter()
        self.speed.probe()
        while self.blocks < min_blocks or time.perf_counter() - start < seconds:
            frames = self.mix.frames(CYCLE_REQUESTS)
            for i in range(0, len(frames), PROBE_REQUESTS):
                t0 = time.perf_counter()
                self._pipeline(frames[i:i + PROBE_REQUESTS])
                self.stretches.append((t0, time.perf_counter() - t0))
                self.speed.probe()
            self.blocks += 1
        return self

    def _pipeline(self, frames) -> None:
        pending: Dict[int, tuple] = {}  # id -> (frame, send time)
        queue = iter(frames)

        def send_next() -> None:
            frame = next(queue, None)
            if frame is not None:
                t0 = time.perf_counter()
                pending[self.daemon.send(frame[0], frame[1])] = (frame, t0)

        for _ in range(PIPELINE_DEPTH):
            send_next()
        while pending:
            reply = self.daemon.client.recv()
            t_reply = time.perf_counter()
            (op, _params, expected), t0 = pending.pop(reply["id"])
            send_next()
            self.samples.append((t0, t_reply - t0))
            self.attempted += 1
            if not reply_ok(reply, op, expected):
                self.failed += 1

    def metrics(self) -> Dict[str, float]:
        scale = self.speed.scale
        return closed_loop_metrics(
            [scale(t, s) for t, s in self.samples],
            sum(scale(t, s) for t, s in self.stretches),
            WORKLOADS["serve-mixed"].tail_q)


# ----------------------------------------------------------------------
# open-loop ladder
# ----------------------------------------------------------------------
class Ladder:
    """The rate ladder on one daemon connection, spans recorded."""

    def __init__(self, daemon: Daemon, mix: Mix, seed: int,
                 rec: SpanRecorder):
        self.daemon = daemon
        self.mix = mix
        self.seed = seed
        self.rec = rec
        #: request id -> (reply time, reply), filled by the receiver
        self.replies: Dict[int, tuple] = {}
        self.lags: List[float] = []

    def _receive(self, n: int) -> None:
        for _ in range(n):
            try:
                reply = self.daemon.client.recv()
            except (OSError, ValueError):
                return
            self.replies[reply.get("id")] = (time.perf_counter(), reply)

    def step(self, k: int, rate: float, n: int) -> StepResult:
        offsets = poisson_schedule(
            rate, n, random.Random(f"{self.seed}/ladder/{k}"))
        frames = self.mix.frames(n)
        ids: List[int] = []

        def send(i):
            op, params, _expected = frames[i]
            ids.append(self.daemon.send(op, params))

        receiver = threading.Thread(target=self._receive, args=(n,))
        receiver.start()
        try:
            start, sent = send_on_schedule(offsets, send)
        finally:
            receiver.join(timeout=REPLY_TIMEOUT_S)
        if receiver.is_alive():
            raise RuntimeError("the daemon stopped replying")
        latencies, rtts, execs, failed = [], [], [], 0
        last_reply = sent[-1]
        for i, rid in enumerate(ids):
            due = start + offsets[i]
            self.lags.append(sent[i] - due)
            got = self.replies.pop(rid, None)
            if got is None:
                failed += 1
                continue
            t_reply, reply = got
            last_reply = max(last_reply, t_reply)
            op, _params, expected = frames[i]
            if not reply_ok(reply, op, expected):
                failed += 1
            latencies.append(t_reply - due)
            exec_s = reply.get("seconds", 0.0)
            rtts.append(t_reply - sent[i])
            execs.append(exec_s)
            root = self.rec.add("serve.request", due, t_reply, rid=rid,
                                rate=rate, op=op)
            self.rec.add("loadgen.lag", due, sent[i], root, rid)
            self.rec.add("serve.exec", t_reply - exec_s, t_reply, root, rid)
        return StepResult(
            rate, latencies or [float("inf")], first_send=sent[0],
            last_send=sent[-1], last_reply=last_reply, attempted=n,
            failed=failed, rtts=rtts, execs=execs,
        )

    def run(self, seconds: float) -> List[StepResult]:
        per_step = seconds / len(LADDER_RPS)
        return [self.step(k, rate, max(1, round(rate * per_step)))
                for k, rate in enumerate(LADDER_RPS)]


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool,
              trace_prefix: Optional[str], work_root: str,
              smoke: bool) -> dict:
    """The whole serve-mixed run; returns the child-style result dict."""
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=work_root)
    daemons: List[Daemon] = []
    mask = os.sched_getaffinity(0)
    try:
        keys = reference_outputs()
        rules = lifting_rules()
        names = itertools.count()

        def spawn(cpu):
            i = next(names)
            d = Daemon(workdir, f"s{i}.sock",
                       os.path.join(workdir, f"cache-s{i}"), cpu)
            try:
                d.client.ping()
                return time.perf_counter() - d.started
            finally:
                d.close()

        setups, daemon_cpu = time_setups(spawn)
        daemon = Daemon(workdir, "d.sock", os.path.join(workdir, "cache"),
                        daemon_cpu)
        daemons.append(daemon)
        # the load generator keeps off the daemon's vCPU when it can
        client_cpu = min(os.sched_getaffinity(0) - {daemon_cpu},
                         default=daemon_cpu)
        os.sched_setaffinity(0, {client_cpu})

        t0 = time.perf_counter()
        replies = daemon.client.batch([(op, params) for op, params, _ in keys])
        prefill_s = time.perf_counter() - t0
        attempted = len(keys)
        failed = sum(not reply_ok(reply, op, expected)
                     for reply, (op, _, expected) in zip(replies, keys))

        cycles = itertools.count()

        def mix(stream):
            return Mix(keys, rules, random.Random(f"{seed}/{stream}"),
                       cycles)

        metrics: Dict[str, float] = {
            "setup_s": statistics.median(f * s for f, s in setups)}
        if not trace:
            wl = WORKLOADS["serve-mixed"]
            caller = ClosedLoop(daemon, mix("caller"),
                                {daemon_cpu, client_cpu}).run(
                seconds, 1 if smoke else wl.min_rounds)
            loops = [caller]
            metrics.update(caller.metrics())
            ops = len(caller.samples)
        else:
            stats_before = daemon.client.cache_stats()["session"]
            scrape_before = daemon.scrape()
            rec = SpanRecorder()
            ladder = Ladder(daemon, mix("ladder"), seed, rec)
            steps = ladder.run(seconds)
            stats_after = daemon.client.cache_stats()["session"]
            scrape_after = daemon.scrape()
            loops = steps
            metrics.update(serve_layers(ladder, steps, stats_before,
                                        stats_after, scrape_before,
                                        scrape_after))
            metrics["serve.prefill_s"] = prefill_s
            # spans are built from timestamps the generator takes anyway,
            # after each step has drained: tracing adds no work to it
            metrics["bench.trace_overhead"] = 1.0
            # the daemon reports its own warm-up; the rest of
            # spawn-to-ping is interpreter start, imports and binding
            warm = scrape_after["repro_session_warm_up_seconds_sum"] * (
                statistics.median(f for f, _ in setups))
            metrics["session.warm_up_s"] = warm
            metrics["session.import_s"] = metrics["setup_s"] - warm
            wall = sum(s.duration for s in rec.spans
                       if s.name == "serve.request")
            if trace_prefix:
                rec.write(trace_prefix + ".trace.json",
                          trace_prefix + ".summary.json", wall)
                print(rec.format_summary(wall), file=sys.stderr)
            for s in steps:
                print(f"serve-mixed: {s.rate:6.1f} req/s  "
                      f"p90 {s.p90_ms:8.2f} ms  "
                      f"backlog {s.last_reply - s.last_send:6.3f} s  "
                      f"served {s.served_rate:6.1f}/s  "
                      f"slo {'met' if s.meets_slo else 'missed'}",
                      file=sys.stderr)
            ops = len(step_for(steps, 100.0).latencies)
        attempted += sum(x.attempted for x in loops)
        failed += sum(x.failed for x in loops)
        metrics["peak_rss_mb"] = daemon.vm_hwm_mb()
        return {"attempted": attempted, "failed": failed, "ops": ops,
                "metrics": metrics}
    finally:
        os.sched_setaffinity(0, mask)
        for d in daemons:
            d.close()
        shutil.rmtree(workdir, ignore_errors=True)


def serve_layers(ladder: Ladder, steps, stats_before, stats_after,
                 scrape_before, scrape_after) -> Dict[str, float]:
    """Per-layer serve, cache and load-generator metrics of one ladder;
    the request-path split is taken at 100 req/s, below saturation, but
    for the execution p99, which needs the whole ladder's samples."""
    def delta(key):
        return stats_after[key] - stats_before[key]

    def scraped(name):
        return scrape_after.get(name, 0.0) - scrape_before.get(name, 0.0)

    hits, misses = delta("hits"), delta("misses")
    at100 = step_for(steps, 100.0)
    waits = [r - e for r, e in zip(at100.rtts, at100.execs)]
    batches = scraped("repro_serve_batch_size_count")
    spans = ladder.rec.spans
    own = self_times(spans)
    request_s = sum(s.duration for s in spans if s.name == "serve.request")
    attributed = sum(own[s.sid] for s in spans if s.parent is not None)
    return {
        "serve.rtt_ms.p50": percentile(at100.rtts, 0.5) * 1e3,
        "serve.exec_ms.p50": percentile(at100.execs, 0.5) * 1e3,
        # a hit executes in no time, so only the top 5% of a step are
        # verifications: their execution shows over the whole ladder
        "serve.exec_ms.p99": percentile(
            [e for s in steps for e in s.execs], 0.99) * 1e3,
        "serve.wait_ms.p50": percentile(waits, 0.5) * 1e3,
        "serve.wait_ms.p90": percentile(waits, 0.9) * 1e3,
        "serve.batch_size_mean": (
            scraped("repro_serve_batch_size_sum") / batches if batches
            else 0.0),
        "serve.p90_ms.r50": step_for(steps, 50.0).p90_ms,
        "serve.p90_ms.r100": step_for(steps, 100.0).p90_ms,
        "serve.p90_ms.r200": step_for(steps, 200.0).p90_ms,
        "serve.max_rate_under_slo": max_rate_under_slo(steps),
        "serve.overload_rps": steps[-1].served_rate,
        "fabric.cache.hit_ratio": hits / (hits + misses),
        "fabric.cache.lookups": hits + misses,
        "fabric.cache.stores": delta("stores"),
        "loadgen.lag_p99_ms": percentile(ladder.lags, 0.99) * 1e3,
        "bench.unattributed_share": 1.0 - attributed / request_s,
    }
