"""Interpreter throughput: reference walker vs closure vs ndarray backend.

Every correctness-bearing number in this repro funnels through
``repro.interp`` — rule verification (one equivalence grid per type/const
combo), SyGuS candidate fingerprinting (one signature per enumerated
candidate), and the lane-exact execution checks behind Figure 5.  This
harness times the two workloads that dominate tier-1 wall clock across
all three evaluation backends:

* **verifier**: the ``rounding_mul_shr`` soundness check's inner loop —
  a boundary-biased sample grid evaluated on both rule sides.  The
  ``reference`` row is the pre-PR-3 interpreter (one recursive tree-walk
  per point per side); ``closure`` is one batched compiled call per side
  (PR 3); ``numpy`` runs the same flat register program as whole-array
  ndarray steps (PR 8) — at verifier-grid lane counts the per-lane
  Python dispatch disappears entirely.
* **sygus**: observational-equivalence fingerprinting over an enumerated
  candidate pool, at the classic 12-test signature width and at a
  batched 2048-test width (well past the lane count where ``auto``
  prefers the ndarray program; the ndarray row pre-converts the shared
  test vectors exactly as ``synthesize_lift`` does).

Results land in ``BENCH_interp.json`` (override the path with
``BENCH_INTERP_JSON``), schema-versioned so CI diffing can reject
layouts it does not know.  Speedup floors asserted here: closure >= 3x
reference and numpy >= 10x closure on the verifier grid; closure >= 2x
reference (12 tests) and numpy >= 5x closure (2048 tests) on sygus
fingerprints.
"""

import itertools
import json
import os
import random
import time

import numpy
from conftest import register_lazy_report

from repro import fpir as F
from repro.analysis import Interval
from repro.fpir.semantics import expand_fully
from repro.interp import (
    clear_compile_cache,
    compile_expr,
    evaluate_reference,
)
from repro.interp.array_backend import (
    clear_array_compile_cache,
    compile_expr_array,
    prepare_env,
)
from repro.ir import builders as h
from repro.ir.types import I16, U8
from repro.lifting import HAND_RULES
from repro.synthesis.sygus import (
    _binary_candidates,
    _shift_candidates,
    _test_envs,
    _unary_candidates,
)
from repro.verify import verify_rule
from repro.verify.rule_verifier import _value_samples

#: bump the major on breaking layout changes to BENCH_interp.json
SCHEMA_VERSION = "bench-interp/2"

_RESULTS = {}


def _best_time(fn, repeats=5):
    # min-of-N: scheduler noise is strictly additive, and the ndarray
    # rows are sub-millisecond — a median under CI load systematically
    # inflates exactly the rows this bench exists to showcase.
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _clear_array_cache():
    # Each row pays its own backend's compile time: the closure rows
    # clear the closure program/kernel memos, the numpy rows clear the
    # ndarray programs (kernel resolution is shared infrastructure and
    # stays warm, as it does in any real process).
    clear_array_compile_cache()


# ----------------------------------------------------------------------
# Verifier inner loop: rounding_mul_shr soundness grid
# ----------------------------------------------------------------------
def _verifier_fixture(max_points=4096, n_random=10):
    """The concrete equivalence check behind lift-rounding-mul-shr-ii:
    core-IR expansion vs FPIR instruction, on a verifier-shaped grid."""
    x, y, s = h.var("x", I16), h.var("y", I16), h.var("s", I16)
    rhs = F.RoundingMulShr(x, y, s)
    lhs = expand_fully(rhs)
    rng = random.Random(0)
    sets = [
        _value_samples(I16, rng, n_random, Interval.of_type(I16))
        for _ in range(3)
    ]
    grid = list(itertools.product(*sets))[:max_points]
    return lhs, rhs, ("x", "y", "s"), grid


def test_verifier_throughput():
    lhs, rhs, names, grid = _verifier_fixture()
    n = len(grid)
    env = {k: [p[i] for p in grid] for i, k in enumerate(names)}

    # The reference walker re-expands the Table 1 semantics every call;
    # time it on a subsample and scale, or the 'before' row alone would
    # dominate the whole bench-smoke job.
    ref_n = min(n, 256)
    ref_grid = grid[:ref_n]

    def reference():
        for point in ref_grid:
            e = {k: [v] for k, v in zip(names, point)}
            evaluate_reference(lhs, e, lanes=1)
            evaluate_reference(rhs, e, lanes=1)

    def closure():
        clear_compile_cache()  # include compile time in the measurement
        assert compile_expr(lhs)(env, n) == compile_expr(rhs)(env, n)

    rows = {
        "reference": {
            "points": ref_n,
            "seconds": _best_time(reference),
        },
        "closure": {"points": n, "seconds": _best_time(closure)},
    }
    # check_equivalence pre-converts the grid once per check when the
    # resolved backend is the ndarray one (both sides share the env);
    # the row mirrors that.
    variables = [h.var(name, I16) for name in names]
    env_nd = prepare_env(env, variables)

    def ndarray():
        _clear_array_cache()
        assert (
            compile_expr_array(lhs)(env_nd, n)
            == compile_expr_array(rhs)(env_nd, n)
        )

    rows["numpy"] = {"points": n, "seconds": _best_time(ndarray)}
    for row in rows.values():
        row["points_per_s"] = row["points"] / row["seconds"]

    speedups = {
        "closure_vs_reference": (
            rows["closure"]["points_per_s"]
            / rows["reference"]["points_per_s"]
        ),
        "numpy_vs_closure": (
            rows["numpy"]["points_per_s"] / rows["closure"]["points_per_s"]
        ),
    }
    _RESULTS["verifier_rounding_mul_shr"] = {
        "grid_points": n,
        "backends": rows,
        "speedups": speedups,
    }
    assert speedups["closure_vs_reference"] >= 3.0, (
        f"closure vs reference {speedups['closure_vs_reference']:.1f}x < 3x"
    )
    assert speedups["numpy_vs_closure"] >= 10.0, (
        f"numpy vs closure {speedups['numpy_vs_closure']:.1f}x < 10x"
    )


def test_verify_rule_end_to_end():
    """Wall clock of the four rounding_mul_shr soundness checks exactly as
    tier-1 runs them (new batched path; context, not a comparison)."""
    rules = [r for r in HAND_RULES if r.name.startswith("lift-rounding-mul-shr")]
    assert len(rules) == 4
    t0 = time.perf_counter()
    for r in rules:
        assert verify_rule(
            r, max_type_combos=6, max_const_samples=4, max_points=400
        ).ok
    _RESULTS["verify_rule_rounding_mul_shr_wall_s"] = time.perf_counter() - t0


# ----------------------------------------------------------------------
# SyGuS candidate fingerprinting
# ----------------------------------------------------------------------
def _candidate_pool():
    a, b = h.var("a", U8), h.var("b", U8)
    pool = [a, b]
    for x in (a, b):
        pool.extend(_unary_candidates(x))
        pool.extend(_shift_candidates(x, [1, 2, 3, 7]))
    for x in list(pool):
        for y in (a, b):
            pool.extend(_binary_candidates(x, y))
    return [a, b], pool


def _fingerprint_rows(variables, pool, n_tests, ref_pool_cap=None):
    env = _test_envs(variables, n_tests, random.Random(0))

    # The reference walker is linear in lanes and slower per lane by
    # orders of magnitude; at batched widths it runs a pool subsample
    # (throughput normalizes by candidates actually evaluated).
    ref_pool = pool if ref_pool_cap is None else pool[:ref_pool_cap]

    def reference():
        for e in ref_pool:
            evaluate_reference(e, env, lanes=n_tests)

    def closure():
        clear_compile_cache()  # fresh pool: compile time counts
        for e in pool:
            compile_expr(e)(env, n_tests)

    rows = {
        "reference": {
            "candidates": len(ref_pool),
            "seconds": _best_time(reference, repeats=2),
        },
        "closure": {"candidates": len(pool), "seconds": _best_time(closure)},
    }
    # synthesize_lift pre-converts the shared test vectors once per
    # search when the resolved backend is the ndarray one; the row
    # mirrors that (the closure rows keep plain lists, as they must).
    env_nd = prepare_env(env, variables)

    def ndarray():
        _clear_array_cache()
        for e in pool:
            compile_expr_array(e)(env_nd, n_tests)

    rows["numpy"] = {"candidates": len(pool), "seconds": _best_time(ndarray)}
    for row in rows.values():
        row["candidates_per_s"] = row["candidates"] / row["seconds"]
    return rows


def test_sygus_fingerprint_throughput():
    variables, pool = _candidate_pool()
    out = {"candidates": len(pool), "rows": {}}
    for n_tests, ref_cap in ((12, None), (2048, 64)):
        rows = _fingerprint_rows(variables, pool, n_tests, ref_pool_cap=ref_cap)
        speedups = {
            "closure_vs_reference": (
                rows["closure"]["candidates_per_s"]
                / rows["reference"]["candidates_per_s"]
            ),
            "numpy_vs_closure": (
                rows["numpy"]["candidates_per_s"]
                / rows["closure"]["candidates_per_s"]
            ),
        }
        out["rows"][str(n_tests)] = {
            "n_tests": n_tests,
            "backends": rows,
            "speedups": speedups,
        }
    _RESULTS["sygus_fingerprint"] = out

    narrow = out["rows"]["12"]["speedups"]
    assert narrow["closure_vs_reference"] >= 2.0, (
        f"sygus closure speedup {narrow['closure_vs_reference']:.1f}x < 2x"
    )
    wide = out["rows"]["2048"]["speedups"]
    assert wide["numpy_vs_closure"] >= 5.0, (
        f"sygus numpy speedup {wide['numpy_vs_closure']:.1f}x < 5x"
    )


# ----------------------------------------------------------------------
# Snapshot + report
# ----------------------------------------------------------------------
def test_write_snapshot():
    doc = {
        "schema_version": SCHEMA_VERSION,
        "numpy_version": numpy.__version__,
        **_RESULTS,
    }
    path = os.environ.get("BENCH_INTERP_JSON", "BENCH_interp.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _interp_report():
    if not _RESULTS:
        return "(no results collected)"
    lines = []
    v = _RESULTS.get("verifier_rounding_mul_shr")
    if v:
        lines.append(f"verifier grid ({v['grid_points']} pts):")
        for name, row in v["backends"].items():
            lines.append(f"  {name:<10} {row['points_per_s']:>14,.0f} points/s")
        for name, x in v["speedups"].items():
            lines.append(f"  {name}: {x:.1f}x")
    s = _RESULTS.get("sygus_fingerprint")
    if s:
        lines.append(f"sygus fingerprints ({s['candidates']} candidates):")
        for key, row in s["rows"].items():
            backs = "  ".join(
                f"{name}={r['candidates_per_s']:,.0f}/s"
                for name, r in row["backends"].items()
            )
            lines.append(f"  n_tests={key}: {backs}")
            for name, x in row["speedups"].items():
                lines.append(f"    {name}: {x:.1f}x")
    w = _RESULTS.get("verify_rule_rounding_mul_shr_wall_s")
    if w is not None:
        lines.append(
            f"verify_rule wall, 4 rounding_mul_shr rules: {w:.2f}s "
            f"(was ~10s on the pre-PR-3 interpreter)"
        )
    return "\n".join(lines)


register_lazy_report(
    "Interpreter throughput: reference vs closure vs ndarray", _interp_report
)
