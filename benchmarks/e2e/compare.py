"""Compare benchmark runs of a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per
workload run.  Run at least ten pairs per workload, alternating which
side runs first; the i-th parent run of a workload is paired with the
i-th change run.  For every (workload, metric) the report gives each
side's median and quartiles, the change's win share over the pairs (ties
count for neither side), the parent's own spread (Q3 - Q1) and the
ratio of medians with its base, and one verdict:

* ``improved`` — the change wins at least 9 in 10 pairs and its median
  beats the parent's by more than the parent's spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — fewer than ten pairs, or the parent's spread is wider
  than the bound and not every change run beats every parent run; for a
  per-layer metric (no bound), any difference that is neither a clear
  win nor a clear loss;
* ``unchanged`` — otherwise.

A gain does not count when more ops failed on the change than on the
parent: its ``improved`` rows read ``unresolved``.  The exit code is 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

from suite import load_benchmark, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[Tuple[str, int], List[dict]]:
    """(workload, trace) -> run results in file order."""
    runs: Dict[Tuple[str, int], List[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(
                    rec["result"])
    return runs


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a > b if direction == "higher" else a < b


def verdict(parent: List[float], change: List[float], direction: str,
            bound) -> dict:
    """The comparison of one metric on one workload."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    losses = sum(better(p, c, direction) for p, c in pairs)
    spread = pq3 - pq1
    diff = abs(cmed - pmed)
    all_better = all(better(c, p, direction)
                     for c in change for p in parent)
    worse_by = ((cmed - pmed) if direction == "lower" else (pmed - cmed))
    rel_worse = worse_by / abs(pmed) if pmed else 0.0
    if len(pairs) < MIN_PAIRS:
        v = "unresolved"
    elif (wins >= WIN_SHARE * len(pairs) and diff > spread
          and better(cmed, pmed, direction)):
        v = "improved"
    elif bound is None:
        exact = pq1 == pq3 and cq1 == cq3
        if exact and cmed == pmed:
            v = "unchanged"
        elif (exact and better(pmed, cmed, direction)) or (
                losses >= WIN_SHARE * len(pairs) and diff > spread):
            v = "worse"
        else:
            v = "unresolved"
    elif rel_worse > bound:
        v = "worse"
    elif pmed and spread / abs(pmed) > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {
        "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
        "pairs": len(pairs), "wins": wins, "ties": len(pairs) - wins - losses,
        "spread": spread, "ratio": cmed / pmed if pmed else float("nan"),
        "verdict": v,
    }


def compare(parent_runs, change_runs, bench) -> List[dict]:
    """One row per (workload, metric) present on both sides."""
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    rows = []
    for (workload, trace), presults in sorted(parent_runs.items()):
        cresults = change_runs.get((workload, trace))
        if not cresults:
            continue
        pfail = sum(r["failed"] for r in presults)
        cfail = sum(r["failed"] for r in cresults)
        for m in declared[trace]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in presults
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in cresults
                  if name in r["metrics"]]
            if not pv or not cv:
                continue
            row = verdict(pv, cv, m["better"], m.get("bound"))
            if row["verdict"] == "improved" and cfail > pfail:
                row["verdict"] = "unresolved"
            row.update(workload=workload, metric=name, unit=m["unit"],
                       bound=m.get("bound"), failed=(pfail, cfail))
            rows.append(row)
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<34} {'parent median [Q1, Q3]':>30} "
        f"{'change median [Q1, Q3]':>30} {'change/parent':>14} "
        f"{'wins':>8} {'verdict':<10}"
    ]

    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    for r in rows:
        lines.append(
            f"{r['workload']:<15} {r['metric']:<34} {side(r['parent']):>30} "
            f"{side(r['change']):>30} {r['ratio']:>14.4f} "
            f"{r['wins']:>3}/{r['pairs']:<4} {r['verdict']:<10}"
        )
        bound = "no bound" if r["bound"] is None else f"bound {r['bound']:g}"
        lines.append(
            f"{'':<15} {'':<34} ratio base: parent median "
            f"{r['parent'][1]:.6g} {r['unit']}; parent spread "
            f"{r['spread']:.4g} {r['unit']}; {bound}; ties {r['ties']}; "
            f"failed ops parent {r['failed'][0]}, change {r['failed'][1]}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs.")
    ap.add_argument("parent", help="run.py --out file of the parent")
    ap.add_argument("change", help="run.py --out file of the change")
    args = ap.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change),
                   load_benchmark())
    if not rows:
        print("no workload was run on both sides", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
