"""Compile-as-a-service throughput: cold process vs warm daemon.

The whole point of ``python -m repro serve`` is amortization: a cold
``python -m repro compile`` pays interpreter start-up, imports, rule
registry loads and discrimination-tree index builds on *every* request,
while the daemon pays them once and serves every later request from
warm state (plus, with a cache attached, from content-addressed hits).

This harness measures that gap on one host:

* **cold process** — median wall time of ``python -m repro compile``
  in a fresh subprocess, the per-request cost of not having a daemon;
* **daemon, cold cache** — the 16-workload arm-neon column pipelined
  once against an empty cache (warm state, real compiles);
* **daemon, warm cache** — the same requests again at pipeline depths
  1, 8 and 64 (pure cache hits; depth 1 also yields honest
  per-request p50/p99 latencies).

Every daemon reply is checked against the one-shot listing — the
byte-identity contract — and the headline assertion is the acceptance
bar: warm daemon throughput at least 5x the cold-process path.
Results land in ``BENCH_serve.json`` (override ``BENCH_SERVE_JSON``).
"""

import asyncio
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from conftest import register_lazy_report

from repro.fabric import ResultCache
from repro.serve import ServeClient, ServeDaemon
from repro.session import CompilerSession
from repro.workloads import WORKLOADS

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
TARGET = "arm-neon"
COLD_RUNS = 3
PIPELINE_DEPTHS = (1, 8, 64)

_RESULTS = {"cpu_count": os.cpu_count(), "target": TARGET}
_STATE = {}


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return None
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def _start_daemon(cache_root):
    holder = {}
    ready = threading.Event()

    async def amain():
        daemon = ServeDaemon(
            session=CompilerSession(cache=ResultCache(root=cache_root)),
        )
        await daemon.start()
        holder["daemon"] = daemon
        holder["loop"] = asyncio.get_running_loop()
        ready.set()
        await daemon._stopped.wait()

    thread = threading.Thread(
        target=lambda: asyncio.run(amain()), daemon=True
    )
    thread.start()
    assert ready.wait(300), "daemon failed to start"
    holder["thread"] = thread
    return holder


def _requests(n):
    """n compile requests cycling over the full workload suite."""
    return [
        ("compile", {
            "workload": WORKLOADS[i % len(WORKLOADS)],
            "target": TARGET,
        })
        for i in range(n)
    ]


def test_cold_process_per_compile():
    """The no-daemon baseline: one subprocess per compile."""
    times = []
    for _ in range(COLD_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "compile", "add",
             "--target", TARGET],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        times.append(time.perf_counter() - t0)
    cold_s = statistics.median(times)
    _RESULTS["cold_process"] = {
        "runs": COLD_RUNS,
        "seconds_per_compile": cold_s,
        "throughput_rps": 1.0 / cold_s,
    }
    _STATE["cold_s"] = cold_s


def test_daemon_cold_and_warm_cache():
    """One daemon, the matrix cold then warm at several depths."""
    tmp = tempfile.mkdtemp(prefix="bench-serve-cache-")
    holder = _start_daemon(tmp)
    daemon = holder["daemon"]
    try:
        with ServeClient(port=daemon.address[1], timeout=600) as client:
            # Byte-identity spot check against the one-shot CLI.
            listing = client.compile("add", TARGET)["listing"]
            oneshot = subprocess.run(
                [sys.executable, "-m", "repro", "compile", "add",
                 "--target", TARGET],
                capture_output=True, check=True, text=True,
                env={**os.environ, "PYTHONPATH": REPO_SRC},
            ).stdout
            assert oneshot == listing + "\n\n", (
                "daemon listing diverged from the one-shot CLI"
            )

            # Cold cache: every unique cell computed once, pipelined.
            cold_reqs = _requests(len(WORKLOADS))
            t0 = time.perf_counter()
            replies = client.batch(cold_reqs)
            cold_wall = time.perf_counter() - t0
            assert all(r["ok"] for r in replies)
            _RESULTS["daemon_cold_cache"] = {
                "requests": len(cold_reqs),
                "pipeline_depth": len(cold_reqs),
                "wall_s": cold_wall,
                "throughput_rps": len(cold_reqs) / cold_wall,
                "cached_replies": sum(r["cached"] for r in replies),
            }

            # Warm cache: same cells, three pipeline depths.
            warm_rows = {}
            for depth in PIPELINE_DEPTHS:
                n = max(64, depth)
                reqs = _requests(n)
                latencies = []
                t0 = time.perf_counter()
                for i in range(0, n, depth):
                    chunk = reqs[i:i + depth]
                    c0 = time.perf_counter()
                    replies = client.batch(chunk)
                    chunk_s = time.perf_counter() - c0
                    assert all(r["ok"] and r["cached"] for r in replies)
                    # Depth 1: true per-request latency; deeper
                    # pipelines: every rider waits for its chunk.
                    latencies.extend([chunk_s / len(chunk)] * len(chunk))
                wall = time.perf_counter() - t0
                latencies.sort()
                warm_rows[str(depth)] = {
                    "requests": n,
                    "wall_s": wall,
                    "throughput_rps": n / wall,
                    "p50_s": _quantile(latencies, 0.50),
                    "p99_s": _quantile(latencies, 0.99),
                }
            _RESULTS["daemon_warm_cache"] = warm_rows

            # The daemon's own view of request latency (all ops mixed).
            hist = next(
                iter(daemon.metrics.histograms("serve_request_seconds")),
                None,
            )
            if hist is not None:
                _RESULTS["daemon_request_seconds"] = {
                    "count": hist.count,
                    "p50_s": hist.quantile(0.5),
                    "p99_s": hist.quantile(0.99),
                }
    finally:
        asyncio.run_coroutine_threadsafe(
            daemon.shutdown(), holder["loop"]
        ).result(timeout=120)
        holder["thread"].join(timeout=120)

    cold_s = _STATE.get("cold_s")
    if cold_s is not None:
        warm_rps = _RESULTS["daemon_warm_cache"]["1"]["throughput_rps"]
        speedup = warm_rps * cold_s
        _RESULTS["warm_daemon_vs_cold_process"] = speedup
        assert speedup >= 5.0, (
            f"warm daemon only {speedup:.1f}x the cold-process path "
            f"(acceptance bar is 5x)"
        )


def test_write_snapshot():
    _RESULTS["schema_version"] = "repro-bench-serve/1"
    path = os.environ.get("BENCH_SERVE_JSON", "BENCH_serve.json")
    with open(path, "w") as f:
        json.dump(_RESULTS, f, indent=2, sort_keys=True)


def _serve_report():
    cold = _RESULTS.get("cold_process")
    if not cold:
        return None
    lines = [
        f"cold process: {cold['seconds_per_compile']:.2f}s/compile "
        f"({cold['throughput_rps']:.2f} req/s)",
    ]
    dc = _RESULTS.get("daemon_cold_cache")
    if dc:
        lines.append(
            f"daemon cold cache: {dc['requests']} reqs in "
            f"{dc['wall_s']:.2f}s ({dc['throughput_rps']:.1f} req/s)"
        )
    for depth, row in sorted(
        (_RESULTS.get("daemon_warm_cache") or {}).items(),
        key=lambda kv: int(kv[0]),
    ):
        lines.append(
            f"daemon warm cache, depth {depth:>2}: "
            f"{row['throughput_rps']:8.1f} req/s | "
            f"p50 {row['p50_s'] * 1e3:6.2f}ms | "
            f"p99 {row['p99_s'] * 1e3:6.2f}ms"
        )
    speedup = _RESULTS.get("warm_daemon_vs_cold_process")
    if speedup:
        lines.append(
            f"warm daemon vs cold process: {speedup:.0f}x "
            f"(bar: 5x)"
        )
    return "\n".join(lines)


register_lazy_report("repro serve: daemon vs cold process", _serve_report)
