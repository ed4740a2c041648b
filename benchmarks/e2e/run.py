"""The repository benchmark: five workloads from compile to daemon.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--smoke]

Each workload runs in fresh child processes (``inproc.py``) or, for
``serve-mixed``, against freshly spawned ``repro serve`` daemons, so
``setup_s`` and ``peak_rss_mb`` belong to that workload alone.  Every
output is checked; a wrong or failed op counts in ``failed``.

``--trace 0`` (default) prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the workload half untraced, half
traced and prints every per-layer metric instead, writing a Chrome trace
and a self-time summary under ``.bench_out/``.  Per-layer metrics of a
layer the workload does not exercise read 0.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with several
workloads its metric names are prefixed ``<workload>:``.  The exit code
is 0 when every output was correct and 1 when one was not; a benchmark
that cannot run (no ``src/repro`` beside it, a child that fails) exits
non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

try:
    from suite import (
        ROOT, WORKLOADS, child_env, load_benchmark, pin_to, time_setups,
    )
except ImportError as exc:  # no repro sources beside the benchmark
    sys.exit(f"error: cannot import the sources under src/: {exc}")

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
#: a child gets this long beyond its ``--seconds`` before it is killed
CHILD_GRACE_S = 120.0


def spawn_inproc(args_list, timeout, cpu=None):
    """Start one child (pinned to ``cpu`` if given); returns
    (spawn-to-READY seconds, READY payload, the child's result or None
    for a set-up-only child)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "inproc.py")] + args_list,
        stdout=subprocess.PIPE, env=child_env(), text=True,
        preexec_fn=None if cpu is None else pin_to(cpu),
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise RuntimeError(f"child failed before READY: {line!r}")
        ready = json.loads(line[len("READY "):])
        rest, _ = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    return setup, ready, json.loads(lines[-1]) if lines else None


def run_inproc(name, seed, seconds, trace, trace_prefix, smoke) -> dict:
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)] + (["--smoke"] if smoke else [])

    def setup_only(cpu):
        setup, ready, _ = spawn_inproc(common + ["--setup-only"], 60.0, cpu)
        return setup, ready

    setups, cpu = time_setups(setup_only)
    extra = ["--trace", str(trace)]
    if trace_prefix:
        extra += ["--trace-prefix", trace_prefix]
    _, _, result = spawn_inproc(common + extra, seconds + CHILD_GRACE_S, cpu)
    m = result["metrics"]
    m["setup_s"] = statistics.median(f * s for f, (s, _) in setups)
    for key in ("import_s", "warm_up_s"):
        m[f"session.{key}"] = statistics.median(
            f * ready[key] for f, (_, ready) in setups)
    return result


def run_workload(name, seed, seconds, trace, smoke) -> dict:
    prefix = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        prefix = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    if WORKLOADS[name].kind == "serve":
        from serve_load import run_serve

        result = run_serve(seed, seconds, bool(trace), prefix, WORK_DIR,
                           smoke)
    else:
        result = run_inproc(name, seed, seconds, trace, prefix, smoke)
    if prefix:
        print(f"{name}: trace in {prefix}.trace.json, self times in "
              f"{prefix}.summary.json", file=sys.stderr)
    return result


def shape(result: dict, declared, trace: bool) -> dict:
    """The result line: every declared metric, in declared order."""
    got = result["metrics"]
    metrics = {}
    for m in declared:
        if m["name"] not in got and not trace:
            raise KeyError(f"workload produced no {m['name']!r}")
        metrics[m["name"]] = {"value": float(got.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append one JSON line per workload run")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 of the measured time, and a run may end "
                         "before its tail has ten samples beyond it")
    args = ap.parse_args(argv)

    bench = load_benchmark()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds if args.seconds is not None else float(
        bench["run_seconds"])
    if args.smoke:
        seconds /= 20.0
    names = args.workload or [w["name"] for w in bench["workloads"]]

    shaped = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace,
                              args.smoke)
        out = shape(result, declared, bool(args.trace))
        shaped[name] = out
        print(f"== {name} (seed {args.seed}, {seconds:g} s, "
              f"{'traced' if args.trace else 'untraced'}): "
              f"{result['ops']} ops timed, tail at "
              f"p{WORKLOADS[name].tail_q * 100:g}; "
              f"{out['attempted']} outputs checked, {out['failed']} failed")
        for metric, v in out["metrics"].items():
            print(f"   {metric:<36} {v['value']:>14.6g} {v['unit']}")
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({
                    "workload": name, "seed": args.seed,
                    "trace": args.trace, "smoke": args.smoke,
                    "seconds": seconds, "result": out,
                }) + "\n")
    if len(shaped) == 1:
        final = next(iter(shaped.values()))
    else:
        final = {
            "correct": all(o["correct"] for o in shaped.values()),
            "attempted": sum(o["attempted"] for o in shaped.values()),
            "failed": sum(o["failed"] for o in shaped.values()),
            "metrics": {f"{name}:{m}": v for name, o in shaped.items()
                        for m, v in o["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
