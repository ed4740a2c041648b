"""Rule-matching throughput: trie index vs linear scan, greedy vs e-graph.

Two questions this harness answers with numbers:

* **how much matching does the discrimination tree avoid?** — a full
  coverage sweep is run with metrics on; the ``match_index`` counters
  record, per consulted node, how many rules the trie admitted to the
  matcher (*hits*) vs how many the naive linear scan would additionally
  have attempted (*misses*).  The attempts-avoided ratio
  ``(hits+misses)/hits`` is the index's pruning power (the repo's
  acceptance floor is 5x, ratcheted in
  ``tests/passes/test_lift_strategies.py``);
* **what does each lift configuration cost in wall-clock?** — the full
  16-workload suite is lifted three ways (indexed greedy, linear-scan
  greedy, e-graph saturation + extraction) and the per-suite median
  times are recorded side by side.

Results land in ``BENCH_match.json`` (override with ``BENCH_MATCH_JSON``).
"""

import json
import os
import statistics
import time

from conftest import register_lazy_report

from repro.analysis import BoundsAnalyzer
from repro.evaluation.coverage import run_coverage
from repro.lifting import Lifter
from repro.lifting.canonicalize import canonicalize
from repro.observe import MetricsRegistry
from repro.session import CompilerSession
from repro.trs.rewriter import RewriteEngine
from repro.workloads import WORKLOADS, by_name

_RESULTS = {}


def _median_time(fn, repeats=3):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def test_match_attempts_avoided():
    """Count index hits/misses over the full coverage sweep."""
    metrics = MetricsRegistry()
    with CompilerSession(metrics=metrics) as session:
        report = run_coverage(session=session)
    assert not report.failures
    hits = misses = 0
    for c in metrics.counters("match_index"):
        if dict(c.labels)["outcome"] == "hit":
            hits += c.value
        else:
            misses += c.value
    _RESULTS["match_attempts"] = {
        "admitted": hits,
        "pruned": misses,
        "naive_attempts": hits + misses,
        "reduction_x": (hits + misses) / hits if hits else None,
    }
    assert hits > 0 and misses > hits


def test_lift_wallclock_by_configuration():
    """Median time to lift the whole suite, per matcher configuration.

    Fresh engines per run so neither the rewrite memo nor the index's
    shape memo carries over between timed repetitions; the greedy
    configurations must agree byte-for-byte.
    """
    suite = [canonicalize(by_name(n).expr) for n in WORKLOADS]
    rules = Lifter().engine.rules

    def lift_all(use_index):
        engine = RewriteEngine(
            rules, require_cost_decrease=True, name="lift",
            use_index=use_index,
        )
        return [engine.rewrite(e).expr for e in suite]

    def lift_all_egraph():
        lifter = Lifter(strategy="egraph")
        return [
            lifter.rewrite(e, BoundsAnalyzer()).expr for e in suite
        ]

    t_indexed, indexed = _median_time(lambda: lift_all(True))
    t_linear, linear = _median_time(lambda: lift_all(False))
    t_egraph, _ = _median_time(lift_all_egraph)
    assert indexed == linear, "index changed greedy lift results"
    _RESULTS["lift_wallclock"] = {
        "workloads": len(suite),
        "greedy_indexed_s": t_indexed,
        "greedy_linear_s": t_linear,
        "egraph_s": t_egraph,
        "index_speedup": t_linear / t_indexed,
        "egraph_overhead_vs_greedy": t_egraph / t_indexed,
    }


def test_write_snapshot():
    _RESULTS["schema_version"] = "repro-bench-match/1"
    path = os.environ.get("BENCH_MATCH_JSON", "BENCH_match.json")
    with open(path, "w") as f:
        json.dump(_RESULTS, f, indent=2, sort_keys=True)


def _match_report():
    lines = []
    m = _RESULTS.get("match_attempts")
    if m:
        lines.append(
            f"match attempts: naive scan {m['naive_attempts']}, index "
            f"admitted {m['admitted']} ({m['reduction_x']:.1f}x reduction)"
        )
    w = _RESULTS.get("lift_wallclock")
    if w:
        lines.append(
            f"suite lift: indexed {w['greedy_indexed_s'] * 1000:.1f}ms | "
            f"linear {w['greedy_linear_s'] * 1000:.1f}ms "
            f"({w['index_speedup']:.2f}x) | e-graph "
            f"{w['egraph_s'] * 1000:.1f}ms "
            f"({w['egraph_overhead_vs_greedy']:.1f}x greedy)"
        )
    return "\n".join(lines)


register_lazy_report("Rule matching: index pruning + lift wall-clock", _match_report)
