"""The benchmark's workload table and the statistics every runner shares.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units, directions and regression bounds; this module
holds what the runners need beyond that: which targets and lift strategy
a workload compiles with, which tail percentile it reports, the host
speed probe every timing is scaled by, and the percentile and SLO rules.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    # never fall back to an installed copy: the benchmark measures these
    raise ImportError(f"no repro package under {SRC}")
sys.path.insert(0, SRC)
from repro import targets as _targets  # noqa: E402

T = TypeVar("T")

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10

PAPER_TARGETS = tuple(t.name for t in _targets.PAPER_TARGETS)
ALL_TARGETS = tuple(_targets.ALL_TARGETS)

#: the verifier settings of ``repro rules --verify``, as ``verify_rule``
#: keywords, and the evaluation backend the benchmark verifies with
VERIFY_SETTINGS = {"max_type_combos": 6, "max_const_samples": 4,
                   "max_points": 400}
VERIFY_BACKEND = "numpy"

#: the serve SLO: p90 within this many ms ...
SLO_P90_MS = 50.0
#: ... and no growing backlog: every reply of a ladder step arrives
#: within this many seconds of the step's last send
SLO_BACKLOG_S = 1.0
#: Share of serve requests that are fresh ``verify-rule`` misses.  At
#: 15%, three batches in four of the pipelined closed loop hold a
#: verification, so its median latency is a verification's and moved by
#: a sixth between runs of one commit; at 5%, two in three hold only
#: hits, and the median is a hit batch's.
VERIFY_SHARE = 0.05
#: the lifting rules one serve verify cycle covers, each exactly once
LIFTING_RULES = 64
#: requests that hold exactly one verify cycle at ``VERIFY_SHARE``
CYCLE_REQUESTS = round(LIFTING_RULES / VERIFY_SHARE)
#: the open-loop rate ladder, 50 * 2^(k/2) req/s for k = 0..6
LADDER_RPS = tuple(50.0 * 2.0 ** (k / 2.0) for k in range(7))
#: set-up is sampled this many times on each of (up to) two vCPUs
SETUP_PER_CPU = 3


def child_env() -> dict:
    """The environment of every process the benchmark starts: the
    sources under ``src/``, one BLAS thread."""
    return dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1")


@dataclass(frozen=True)
class Workload:
    """How one named workload runs (its ``why`` is in BENCHMARK.json).

    A run is whole rounds, each the workload's full op set in a seeded
    order, until ``--seconds`` have passed, so every op of a round is
    measured as often as every other.
    """

    name: str
    kind: str  # "compile" | "verify" | "serve"
    #: ops in one round
    round_ops: int
    #: the tail percentile reported as ``latency_tail_ms``
    tail_q: float
    targets: Tuple[str, ...] = ()
    lift_strategy: str = "greedy"
    #: compile a freshly renamed copy of the expression on every op
    fresh: bool = False

    @property
    def min_rounds(self) -> int:
        """The fewest rounds that leave ``MIN_BEYOND`` samples beyond
        the tail percentile; a run on a slow host goes on until then."""
        rounds = 1
        while beyond(rounds * self.round_ops, self.tail_q) < MIN_BEYOND:
            rounds += 1
        return rounds


#: suite kernels compiled per target
_CELLS = 16

#: A round holds each input once, so a tail percentile picks an input by
#: its rank.  Each one is about the highest with ten samples beyond it in
#: a 15 s run on the reference host (two shared vCPUs) at its slowest,
#: moved to the middle of one input's share of the samples: at the edge
#: between two inputs it jumps between their latencies from run to run.
#: On serve-mixed, p99.5 falls among the requests that shared a batch
#: with one of the slowest verifications; p99 fell among those queued
#: behind it, and moved by a ninth between runs.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("compile-suite", "compile", _CELLS * 3, 0.99,
                 targets=PAPER_TARGETS),
        Workload("compile-fresh", "compile", _CELLS * 6, 0.995,
                 targets=ALL_TARGETS, fresh=True),
        Workload("compile-egraph", "compile", _CELLS * 3, 0.97,
                 targets=PAPER_TARGETS, lift_strategy="egraph"),
        Workload("verify-rules", "verify", LIFTING_RULES + 3, 0.98),
        Workload("serve-mixed", "serve", CYCLE_REQUESTS, 0.995),
    )
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation between closest ranks
    (``statistics.quantiles(..., method="inclusive")``)."""
    if not values:
        raise ValueError("percentile of no samples")
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-quantile."""
    return n - 1 - math.floor(q * (n - 1))


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Wall seconds of one :func:`probe_slice` on the reference host when no
#: other tenant slows it; timings are reported scaled to that speed.
PROBE_REF_S = 0.005
#: a run probes at least this often, between two ops
PROBE_EVERY_S = 0.1
_PROBE_ITERS = 12_000


def probe_slice() -> float:
    """Wall seconds of a fixed slice of interpreter work.

    The slice is dictionary, tuple and string work like the compiler's,
    on a few kilobytes, with the collector off: nothing the program
    under test leaves on the heap can slow it, so only the host can.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: Dict[Tuple[int, int], int] = {}
        for i in range(_PROBE_ITERS):
            key = (i & 63, i & 7)
            table[key] = table.get(key, 0) + len(str(i))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes of the host's speed, taken between ops.

    Other tenants of the reference host slow a vCPU by up to a half, in
    bursts shorter than a second and in phases minutes long, and the
    slowdown shows in CPU time as much as in wall time.  So an op's
    latency is scaled by ``PROBE_REF_S`` over the mean of the probes on
    either side of it: the time the op would have taken at the reference
    speed.  Between runs of one commit that cut the spread of a compile
    timing from 10-30% to 2-8% (tails: up to 16%).
    """

    def __init__(self, probe: Callable[[], float] = probe_slice) -> None:
        #: takes one probe, returning its wall seconds
        self._probe = probe
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def probe(self) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(self._probe())

    def between_ops(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        if not self.starts or (time.perf_counter() - self.starts[-1]
                               >= PROBE_EVERY_S):
            self.probe()

    def factor(self, t: float) -> float:
        """Reference speed over the host's speed around time ``t``."""
        i = bisect.bisect_right(self.starts, t)
        around = self.seconds[max(i - 1, 0)] + self.seconds[
            min(i, len(self.seconds) - 1)]
        return 2.0 * PROBE_REF_S / around

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at reference speed."""
        return seconds * self.factor(start)

    @property
    def slowdown(self) -> float:
        """The median probe over the reference: how slow the host ran."""
        return statistics.median(self.seconds) / PROBE_REF_S


def pin_to(cpu: int):
    """A ``preexec_fn`` that pins the child to ``cpu``."""
    return lambda: os.sched_setaffinity(0, {cpu})


def probe_on(cpu: int) -> float:
    """One :func:`probe_slice` with the calling thread pinned to
    ``cpu``."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return probe_slice()
    finally:
        os.sched_setaffinity(0, mask)


def time_setups(spawn: Callable[[int], T]) -> Tuple[List[Tuple[float, T]],
                                                   int]:
    """Set-up samples with their scale factors, and the quieter vCPU.

    ``spawn(cpu)`` starts one process pinned to ``cpu`` and waits until
    it is ready; it is called ``SETUP_PER_CPU`` times on each of (up to)
    two vCPUs, with a probe on that vCPU either side.  Returns
    ``(factor, spawn's result)`` per call, where ``factor`` scales the
    call's wall times to reference speed, and the vCPU whose probes were
    faster: one vCPU at a time is often slowed by a neighbour for
    minutes, and the measured process runs on the other.
    """
    samples: List[Tuple[float, T]] = []
    probes: Dict[int, List[float]] = {}
    cpus = sorted(os.sched_getaffinity(0))[:2]
    for _ in range(SETUP_PER_CPU):
        for cpu in cpus:
            before = probe_on(cpu)
            result = spawn(cpu)
            after = probe_on(cpu)
            samples.append((2.0 * PROBE_REF_S / (before + after), result))
            probes.setdefault(cpu, []).extend((before, after))
    return samples, min(probes, key=lambda c: statistics.median(probes[c]))


def closed_loop_metrics(latencies: Sequence[float], busy_s: float,
                        tail_q: float) -> Dict[str, float]:
    """The end-to-end timings of a closed loop from the latency of every
    op and the seconds the loop was busy."""
    return {
        "ops_per_s": len(latencies) / busy_s,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_tail_ms": percentile(latencies, tail_q) * 1e3,
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# the serve SLO
# ----------------------------------------------------------------------
@dataclass
class StepResult:
    """One open-loop ladder step, as the load generator saw it."""

    rate: float
    #: reply time minus due time, per answered request, seconds
    latencies: List[float]
    #: the step's first send, last send and last reply (perf_counter s)
    first_send: float
    last_send: float
    last_reply: float
    attempted: int = 0
    failed: int = 0
    #: send-to-reply time and the reply's own ``seconds``, per reply
    rtts: List[float] = field(default_factory=list)
    execs: List[float] = field(default_factory=list)

    @property
    def p90_ms(self) -> float:
        return percentile(self.latencies, 0.9) * 1e3

    @property
    def served_rate(self) -> float:
        """Replies per second from the first send to the last reply:
        the daemon's capacity when the step overloads it."""
        return len(self.latencies) / (self.last_reply - self.first_send)

    @property
    def backlog_ok(self) -> bool:
        return self.last_reply - self.last_send <= SLO_BACKLOG_S

    @property
    def meets_slo(self) -> bool:
        return (
            not self.failed
            and self.p90_ms <= SLO_P90_MS
            and self.backlog_ok
        )


def max_rate_under_slo(steps: Sequence[StepResult]) -> float:
    """The highest ladder rate at which that step and every lower step
    meet the SLO (0.0 when even the lowest misses)."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.meets_slo:
            break
        best = step.rate
    return best


def step_for(steps: Sequence[StepResult], rate: float) -> Optional[StepResult]:
    """The ladder step whose offered rate is closest to ``rate``."""
    return min(steps, key=lambda s: abs(s.rate - rate), default=None)
