"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e``."""

import json
import os
import re
import subprocess
import sys

import pytest

import suite
from serve_load import send_on_schedule
from spans import SpanRecorder, covered, self_times
from suite import (
    MIN_BEYOND,
    PROBE_REF_S,
    WORKLOADS,
    HostSpeed,
    StepResult,
    beyond,
    closed_loop_metrics,
    load_benchmark,
    max_rate_under_slo,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args):
    """``run.py`` in smoke mode; returns its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
def test_beyond_counts_samples_above_the_quantile():
    values = list(range(1000))
    for q in (0.5, 0.9, 0.99, 0.999):
        cut = suite.percentile(values, q)
        assert beyond(1000, q) == sum(v > cut for v in values)


def test_min_rounds_is_the_fewest_with_ten_samples_beyond_the_tail():
    for wl in WORKLOADS.values():
        n = wl.min_rounds * wl.round_ops
        assert beyond(n, wl.tail_q) >= MIN_BEYOND, wl.name
        assert (wl.min_rounds == 1
                or beyond(n - wl.round_ops, wl.tail_q) < MIN_BEYOND), wl.name


def test_closed_loop_tail_comes_from_every_sample():
    # one op in 50 is slowed 10x by something the program does: the
    # tail must show it even though every input is otherwise fast
    lat = [0.001] * 980 + [0.010] * 20
    m = closed_loop_metrics(lat, sum(lat), 0.99)
    assert m["latency_p50_ms"] == pytest.approx(1.0)
    assert m["latency_tail_ms"] == pytest.approx(10.0)
    assert m["ops_per_s"] == pytest.approx(1000 / 1.18)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def test_host_speed_scales_by_the_probes_either_side():
    speed = HostSpeed()
    speed.starts = [0.0, 1.0, 2.0]
    speed.seconds = [PROBE_REF_S, 3 * PROBE_REF_S, PROBE_REF_S]
    # between a probe at reference speed and one three times slower
    assert speed.scale(0.5, 0.2) == pytest.approx(0.1)
    assert speed.scale(1.5, 0.2) == pytest.approx(0.1)
    # before the first probe and after the last, the nearest one counts
    assert speed.scale(-1.0, 0.2) == pytest.approx(0.2)
    assert speed.scale(5.0, 0.2) == pytest.approx(0.2)
    assert speed.slowdown == pytest.approx(1.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_with_overlapping_children():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, root)
    rec.add("b", 3.0, 6.0, root)     # overlaps a: union is [1, 6]
    rec.add("c", 9.0, 12.0, root)    # clipped to the parent: [9, 10]
    own = self_times(rec.spans)
    assert own[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0)
    assert covered([(1, 4), (3, 6), (5, 5)], 0, 10) == pytest.approx(5.0)


def test_nested_span_blocks_record_parents(tmp_path):
    rec = SpanRecorder()
    with rec.span("op"):
        with rec.span("layer"):
            pass
    assert [s.parent for s in rec.spans] == [None, 0]
    rec.write(str(tmp_path / "t.json"), str(tmp_path / "s.json"), 1.0)
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["op", "layer"]
    summary = json.loads((tmp_path / "s.json").read_text())
    assert set(summary["spans"]) == {"op", "layer"}


# ----------------------------------------------------------------------
# open-loop lateness
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_late_sends_keep_their_due_times():
    clock = FakeClock()

    def send(i):  # every send takes 30 ms; arrivals are 10 ms apart
        clock.now += 0.030

    offsets = [0.01 * (i + 1) for i in range(5)]
    start, sent = send_on_schedule(offsets, send, clock=clock,
                                   sleep=clock.sleep)
    lateness = [s - (start + off) for s, off in zip(sent, offsets)]
    assert lateness == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08])


def test_early_sends_wait_for_their_due_time():
    clock = FakeClock()
    start, sent = send_on_schedule([0.5, 1.0], lambda i: None, clock=clock,
                                   sleep=clock.sleep)
    assert [s - start for s in sent] == pytest.approx([0.5, 1.0])


# ----------------------------------------------------------------------
# the SLO and backlog rule
# ----------------------------------------------------------------------
def step(rate, p90_ms, backlog_s=0.0, failed=0):
    lat = [p90_ms / 1e3] * 100
    return StepResult(rate, lat, first_send=0.0, last_send=1.0,
                      last_reply=1.0 + backlog_s, attempted=100,
                      failed=failed)


def test_slo_needs_p90_backlog_and_no_failures():
    assert step(50, 49.0).meets_slo
    assert not step(50, 51.0).meets_slo
    assert step(50, 10.0, backlog_s=1.0).meets_slo
    assert not step(50, 10.0, backlog_s=1.01).meets_slo
    assert not step(50, 10.0, failed=1).meets_slo


def test_max_rate_stops_at_the_first_missed_step():
    steps = [step(50, 10), step(70.7, 20), step(100, 80), step(141.4, 20)]
    assert max_rate_under_slo(steps) == 70.7
    assert max_rate_under_slo([step(50, 60)]) == 0.0


# ----------------------------------------------------------------------
# renaming invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", [("sobel3x3", "arm-neon"),
                                  ("l2norm", "hexagon-hvx")])
def test_renamed_compile_matches_its_cell(cell):
    import inproc

    wl = inproc.by_name(cell[0])
    target = inproc.target_by_name(cell[1])
    expr, bounds, sfx = inproc.renamed(wl, "_r0c1")
    assert expr is not wl.expr
    base = inproc.pitchfork_compile(wl.expr, target, var_bounds=wl.var_bounds)
    prog = inproc.pitchfork_compile(expr, target, var_bounds=bounds)
    assert (inproc.signature(prog, prog.cost().total)
            == inproc.signature(base, base.cost().total))
    env = {k + sfx: v for k, v in wl.random_env(lanes=16, seed=3).items()}
    assert prog.run(env) == inproc.evaluate_reference(expr, env)


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("change, bound, expected", [
    ([90.0 + i for i in range(10)], 0.1, "improved"),    # all 10 pairs won
    ([101.0 + i for i in range(10)], 0.1, "unchanged"),  # within the bound
    ([120.0 + i for i in range(10)], 0.1, "worse"),
    ([100.0 + i for i in range(10)], 0.01, "unresolved"),  # spread > bound
    ([95.0 + i for i in range(10)][:9], 0.1, "unresolved"),  # 9 pairs
    ([150.0] * 10, None, "worse"),                       # clear loss
])
def test_compare_verdicts(change, bound, expected):
    from compare import verdict

    parent = [100.0 + i for i in range(10)]  # a latency: lower is better
    assert verdict(parent, change, "lower", bound)["verdict"] == expected


def test_compare_counts_ties_for_neither_side():
    from compare import verdict

    row = verdict([5.0] * 10, [5.0] * 5 + [6.0] * 5, "higher", None)
    assert (row["wins"], row["ties"]) == (5, 5)
    assert row["verdict"] == "unresolved"


# ----------------------------------------------------------------------
# BENCHMARK.json and the output contract
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"]]
             + [m["name"] for m in BENCH["per_layer"]])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_output_carries_the_declared_end_to_end_metrics():
    out = run_bench("--workload", "compile-suite")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_output_carries_the_declared_per_layer_metrics():
    out = run_bench("--workload", "verify-rules", "--trace", "1")
    assert out["correct"]
    assert list(out["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert out["metrics"]["verify.rule_verifier.ms_per_op"]["value"] > 0
