"""Execution-fabric throughput: serial vs parallel vs warm-cache sweeps.

The fabric (:mod:`repro.fabric`) runs every matrix-shaped job in the
repo — rule verification, the coverage sweep, the Figure 5/6/7 cells —
as independent tasks that can fan out over worker processes and persist
per-cell results in a content-addressed cache.  This harness times the
two sweeps CI leans on hardest, three ways each:

* **serial cold** — ``jobs=1``, no cache: the pre-fabric baseline path;
* **parallel cold** — ``jobs=4``, no cache: fan-out speedup (only
  expected to show on multi-core hosts; the JSON records ``cpu_count``
  so a single-core number is never misread as a regression);
* **warm cache** — ``jobs=1`` over a fully populated cache: pure
  content-addressed hits.

Every mode must produce byte-identical results — that equality is
asserted here, not just the timings.  Results land in
``BENCH_fabric.json`` (override with ``BENCH_FABRIC_JSON``).
"""

import json
import os
import statistics
import tempfile
import time

from conftest import register_lazy_report

from repro.evaluation.coverage import run_coverage
from repro.fabric import ResultCache
from repro.session import CompilerSession
from repro.verify import batch_verify_rules

PARALLEL_JOBS = 4
_RESULTS = {"cpu_count": os.cpu_count(), "parallel_jobs": PARALLEL_JOBS}


def _median_time(fn, repeats=3):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _verify_batch(jobs, cache):
    with CompilerSession(jobs=jobs, cache=cache) as session:
        return batch_verify_rules(
            ["lifting-hand", "lifting-synth"], session=session
        )


def _coverage(jobs, cache=None):
    with CompilerSession(jobs=jobs, cache=cache) as session:
        return run_coverage(session=session)


def _verify_key(results):
    return [(label, r.rule_name, r.ok) for label, r in results]


def test_fabric_rule_verification():
    """The 64-rule lifting verification batch, three ways."""
    t_serial, base = _median_time(lambda: _verify_batch(1, None), repeats=1)
    t_parallel, par = _median_time(
        lambda: _verify_batch(PARALLEL_JOBS, None), repeats=1
    )
    assert _verify_key(base) == _verify_key(par)
    with tempfile.TemporaryDirectory() as d:
        _verify_batch(1, ResultCache(root=d))  # populate
        cache = ResultCache(root=d)
        t_warm, warm = _median_time(lambda: _verify_batch(1, cache))
        assert _verify_key(base) == _verify_key(warm)
        assert cache.misses == 0, "warm run must be pure hits"
    warm_speedup = t_serial / t_warm
    _RESULTS["rule_verification"] = {
        "tasks": len(base),
        "serial_cold_s": t_serial,
        "parallel_cold_s": t_parallel,
        "warm_cache_s": t_warm,
        "parallel_speedup": t_serial / t_parallel,
        "warm_speedup": warm_speedup,
    }
    assert warm_speedup >= 4.0, (
        f"warm-cache verification only {warm_speedup:.1f}x faster than "
        f"cold serial"
    )
    if (os.cpu_count() or 1) >= PARALLEL_JOBS:
        speedup = t_serial / t_parallel
        assert speedup >= 1.5, (
            f"parallel verification only {speedup:.2f}x on "
            f"{os.cpu_count()} cores"
        )


def test_fabric_coverage_sweep():
    """The 16-workload x 3-target coverage sweep, three ways."""
    t_serial, base = _median_time(lambda: _coverage(1), repeats=1)
    t_parallel, par = _median_time(
        lambda: _coverage(PARALLEL_JOBS), repeats=1
    )
    assert base.to_json() == par.to_json()
    with tempfile.TemporaryDirectory() as d:
        _coverage(1, ResultCache(root=d))  # populate
        cache = ResultCache(root=d)
        t_warm, warm = _median_time(lambda: _coverage(1, cache))
        assert base.to_json() == warm.to_json()
        assert cache.misses == 0, "warm run must be pure hits"
    _RESULTS["coverage_sweep"] = {
        "tasks": len(base.workloads) * len(base.targets),
        "serial_cold_s": t_serial,
        "parallel_cold_s": t_parallel,
        "warm_cache_s": t_warm,
        "parallel_speedup": t_serial / t_parallel,
        "warm_speedup": t_serial / t_warm,
    }


def test_write_snapshot():
    _RESULTS["schema_version"] = "repro-bench-fabric/1"
    path = os.environ.get("BENCH_FABRIC_JSON", "BENCH_fabric.json")
    with open(path, "w") as f:
        json.dump(_RESULTS, f, indent=2, sort_keys=True)


def _fabric_report():
    lines = [f"host: {_RESULTS['cpu_count']} cpus; "
             f"parallel runs use --jobs {PARALLEL_JOBS}"]
    for key, title in (
        ("rule_verification", "rule verification (64 lifting rules)"),
        ("coverage_sweep", "coverage sweep (16 workloads x 3 targets)"),
    ):
        r = _RESULTS.get(key)
        if not r:
            continue
        lines.append(
            f"{title}: serial {r['serial_cold_s']:.2f}s | "
            f"parallel {r['parallel_cold_s']:.2f}s "
            f"({r['parallel_speedup']:.2f}x) | "
            f"warm cache {r['warm_cache_s']:.2f}s "
            f"({r['warm_speedup']:.1f}x)"
        )
    return "\n".join(lines)


register_lazy_report("Execution fabric: fan-out + result cache", _fabric_report)
