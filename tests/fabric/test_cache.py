"""Result-cache contract: content addressing, invalidation, resilience."""

import itertools
import json
import os
import subprocess
import sys

import pytest

from repro.fabric import (
    ResultCache,
    TaskSpec,
    default_cache_dir,
    eval_backend_fingerprint,
    expr_fingerprint,
    get_job_kind,
    lookup_task,
    pipeline_rules_fingerprint,
    predicate_fingerprint,
    rule_fingerprint,
    rulebase_fingerprint,
    run_tasks,
)
from repro.fabric.fingerprint import (
    cell_rules_fingerprint,
    workload_fingerprint,
)
from repro.fabric.jobs import (
    CellParams,
    CompileTimeParams,
    RuntimeParams,
    VerifyParams,
)
from repro.ir import builders as h
from repro.ir.types import I16, U8
from repro.trs.rule import Rule

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _entry_files(root):
    return [
        os.path.join(dirpath, f)
        for dirpath, _dirs, files in os.walk(root)
        for f in files
        if f.endswith(".json")
    ]


class TestBasicOperation:
    def test_miss_store_hit_cycle(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        hit, _ = cache.get("t-echo", key)
        assert not hit and cache.misses == 1
        cache.put("t-echo", key, {"v": 1})
        assert cache.stores == 1
        hit, value = cache.get("t-echo", key)
        assert hit and value == {"v": 1} and cache.hits == 1

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cache.put("a", cache.key("a", "1"), 1)
        cache.put("b", cache.key("b", "2"), 2)
        s = cache.stats()
        assert s["entries"] == 2 and s["by_kind"] == {"a": 1, "b": 1}
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_stats_split_bytes_per_kind(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cache.put("small", cache.key("small", "1"), 1)
        cache.put("big", cache.key("big", "1"), "x" * 4096)
        s = cache.stats()
        assert set(s["kind_bytes"]) == {"small", "big"}
        assert s["kind_bytes"]["big"] > s["kind_bytes"]["small"] > 0
        assert sum(s["kind_bytes"].values()) == s["bytes"]

    def test_default_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir() == ".repro-cache"


class TestInvalidation:
    """Any semantic input change must produce a different key."""

    def test_version_bump_misses(self, tmp_path):
        old = ResultCache(root=str(tmp_path), version="1.0")
        key = old.key("t-echo", "same-content")
        old.put("t-echo", key, "stale")
        new = ResultCache(root=str(tmp_path), version="2.0")
        assert new.key("t-echo", "same-content") != key
        hit, _ = new.get("t-echo", new.key("t-echo", "same-content"))
        assert not hit

    def test_different_target_is_a_different_key(self):
        arm = pipeline_rules_fingerprint("arm-neon")
        hvx = pipeline_rules_fingerprint("hexagon-hvx")
        assert arm != hvx

    def test_rulebase_mutation_changes_fingerprint(self):
        x = h.var("x", I16)
        r1 = Rule("r1", h.maximum(x, h.const(I16, 0)), x)
        r2 = Rule("r2", h.minimum(x, h.const(I16, 0)), x)
        base = rulebase_fingerprint([r1])
        assert rulebase_fingerprint([r1, r2]) != base
        # Order matters: the engine applies rules in priority order.
        assert rulebase_fingerprint([r2, r1]) != rulebase_fingerprint(
            [r1, r2]
        )

    def test_predicate_logic_changes_fingerprint(self):
        # Two rules with identical printed text but different predicate
        # bodies must not collide (the serializer dumps both as opaque).
        x = h.var("x", I16)
        lhs, rhs = h.maximum(x, h.const(I16, 0)), x

        def pred_a(match, ctx):
            return ctx.upper_bounded(match.env["x"], 100)

        def pred_b(match, ctx):
            return ctx.upper_bounded(match.env["x"], 200)

        ra = Rule("same-name", lhs, rhs, predicate=pred_a)
        rb = Rule("same-name", lhs, rhs, predicate=pred_b)
        assert rule_fingerprint(ra) != rule_fingerprint(rb)
        assert predicate_fingerprint(pred_a) != predicate_fingerprint(
            pred_b
        )

    def test_lift_strategy_is_a_semantic_input(self):
        # Greedy and e-graph lifts can produce different programs from
        # identical rules, so their fingerprints must never collide.
        greedy = pipeline_rules_fingerprint("arm-neon")
        egraph = pipeline_rules_fingerprint(
            "arm-neon", lift_strategy="egraph"
        )
        assert greedy != egraph
        assert greedy == pipeline_rules_fingerprint(
            "arm-neon", lift_strategy="greedy"
        )

    def test_strategies_never_share_cache_entries(self, tmp_path):
        # One cell, two strategies: both runs must store fresh entries
        # (different keys), and re-running each strategy must hit its
        # own entry — greedy and e-graph results never cross-contaminate.
        cache = ResultCache(root=str(tmp_path))
        greedy = TaskSpec("coverage", ("add", "arm-neon"), CellParams())
        egraph = TaskSpec(
            "coverage", ("add", "arm-neon"),
            CellParams(lift_strategy="egraph"),
        )
        first = run_tasks([greedy], cache=cache)[0]
        second = run_tasks([egraph], cache=cache)[0]
        assert not first.cached and not second.cached
        assert cache.stores == 2
        assert run_tasks([greedy], cache=cache)[0].cached
        assert run_tasks([egraph], cache=cache)[0].cached

    def test_eval_backend_is_a_semantic_input(self):
        # Closure and numpy evaluation are proven lane-exact, but the
        # numpy tier's arithmetic is pinned to the installed numpy, so
        # verdicts produced under different backends (or different numpy
        # versions) must never collide.
        pytest.importorskip("numpy")
        closure = eval_backend_fingerprint("closure")
        assert closure == eval_backend_fingerprint("closure")
        assert closure != eval_backend_fingerprint("numpy")
        assert closure != eval_backend_fingerprint("auto")
        # None resolves through the process default, never crashes.
        assert eval_backend_fingerprint(None)

    def test_eval_backends_never_share_verify_entries(self, tmp_path):
        # One verify-rule cell, two backends: each run stores a fresh
        # entry and re-running the same backend hits its own entry.
        pytest.importorskip("numpy")
        cache = ResultCache(root=str(tmp_path))
        budget = dict(max_type_combos=2, max_const_samples=2, max_points=50)
        closure = TaskSpec(
            "verify-rule", ("lifting-hand", "lift-widening-add"),
            VerifyParams(eval_backend="closure", **budget),
        )
        npy = TaskSpec(
            "verify-rule", ("lifting-hand", "lift-widening-add"),
            VerifyParams(eval_backend="numpy", **budget),
        )
        first = run_tasks([closure], cache=cache)[0]
        second = run_tasks([npy], cache=cache)[0]
        assert first.ok and second.ok
        assert not first.cached and not second.cached
        assert cache.stores == 2
        assert run_tasks([closure], cache=cache)[0].cached
        assert run_tasks([npy], cache=cache)[0].cached
        # Lane-exactness: both backends reach the same verdict.
        assert first.value == second.value

    def test_expr_fingerprint_distinguishes_types(self):
        assert expr_fingerprint(h.var("x", I16)) != expr_fingerprint(
            h.var("x", U8)
        )

    def test_fingerprints_stable_across_processes(self):
        # Bytecode-based fingerprints must not embed memory addresses:
        # the same rulebase hashed in a fresh interpreter gives the
        # same digest, or the on-disk cache could never hit.
        code = (
            "from repro.fabric import pipeline_rules_fingerprint;"
            "print(pipeline_rules_fingerprint('arm-neon'))"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": REPO_SRC},
            ).stdout.strip()
            for _ in range(2)
        }
        assert runs == {pipeline_rules_fingerprint("arm-neon")}


class TestConcurrentAccess:
    """A daemon shares one cache dir across racing processes and
    threads; the atomic tmp-file + rename discipline must guarantee a
    reader never observes a torn entry, whoever wins the race."""

    def test_racing_writers_leave_one_intact_entry(self, tmp_path):
        import threading

        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "contended")
        errors = []
        barrier = threading.Barrier(8)

        def write(i):
            try:
                barrier.wait()
                # Each writer stores a distinct (valid) payload.
                ResultCache(root=str(tmp_path)).put(
                    "t-echo", key, {"writer": i, "pad": "x" * 2000}
                )
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        hit, value = cache.get("t-echo", key)
        assert hit, "racing writers must still leave a readable entry"
        # Whole-payload integrity: one writer's value, never a splice.
        assert value["pad"] == "x" * 2000
        assert value["writer"] in range(8)
        # No leaked tmp files from the losing writers.
        leftovers = [
            f
            for _dirpath, _dirs, files in os.walk(tmp_path)
            for f in files
            if f.endswith(".tmp")
        ]
        assert leftovers == []

    def test_reader_during_write_never_sees_a_torn_entry(self, tmp_path):
        import threading

        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "hot")
        payload = {"pad": "y" * 5000}
        cache.put("t-echo", key, payload)
        stop = threading.Event()
        torn = []

        def rewrite():
            w = ResultCache(root=str(tmp_path))
            while not stop.is_set():
                w.put("t-echo", key, payload)

        writer = threading.Thread(target=rewrite)
        writer.start()
        try:
            reader = ResultCache(root=str(tmp_path))
            for _ in range(300):
                hit, value = reader.get("t-echo", key)
                # Under os.replace the entry is always whole: a miss or
                # a partial payload here would be a torn read.
                if not hit or value != payload:
                    torn.append(value)
        finally:
            stop.set()
            writer.join()
        assert torn == []


class TestSchedulerIntegration:
    def test_cacheable_task_round_trip(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = TaskSpec("coverage", ("add", "arm-neon"), CellParams())
        first = run_tasks([spec], cache=cache)[0]
        assert first.ok and not first.cached and cache.stores == 1
        second = run_tasks([spec], cache=cache)[0]
        assert second.ok and second.cached
        assert second.value == first.value

    def test_hit_across_processes(self, tmp_path):
        # Seed the cache here, then resolve the same cell in a fresh
        # interpreter: content addressing must line up bit-for-bit.
        cache = ResultCache(root=str(tmp_path))
        seeded = run_tasks(
            [TaskSpec("coverage", ("add", "arm-neon"), CellParams())],
            cache=cache,
        )[0]
        assert not seeded.cached
        code = (
            "from repro.fabric import ResultCache, TaskSpec, run_tasks;"
            "from repro.fabric.jobs import CellParams;"
            f"c = ResultCache(root={str(tmp_path)!r});"
            "r = run_tasks([TaskSpec('coverage', ('add', 'arm-neon'),"
            " CellParams())], cache=c)[0];"
            "print('cached' if r.cached else 'recomputed')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        ).stdout.strip()
        assert out == "cached"

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = TaskSpec("coverage", ("add", "arm-neon"), CellParams())
        baseline = run_tasks([spec], cache=cache)[0]
        (entry,) = _entry_files(tmp_path)
        with open(entry, "w") as fh:
            fh.write('{"kind": "coverage", "key": "trunca')
        rerun = run_tasks([spec], cache=ResultCache(root=str(tmp_path)))[0]
        assert rerun.ok and not rerun.cached
        assert rerun.value == baseline.value

    def test_mismatched_entry_key_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = TaskSpec("coverage", ("add", "arm-neon"), CellParams())
        run_tasks([spec], cache=cache)
        (entry,) = _entry_files(tmp_path)
        payload = json.load(open(entry))
        payload["key"] = "0" * 64  # valid JSON, wrong identity
        json.dump(payload, open(entry, "w"))
        fresh = ResultCache(root=str(tmp_path))
        rerun = run_tasks([spec], cache=fresh)[0]
        assert rerun.ok and not rerun.cached and fresh.misses == 1

    def test_noncacheable_kind_never_touches_the_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = TaskSpec(
            "compile-time", ("add", "arm-neon"), CompileTimeParams(repeats=1)
        )
        run_tasks([spec], cache=cache)
        assert cache.stores == 0 and cache.misses == 0
        assert _entry_files(tmp_path) == []


class TestKeyMemo:
    """The memoized key parts of compile-shaped cells (the workload
    expression and the pipeline rulebase) against the unmemoized
    fingerprint functions, which stay the reference."""

    def _reference_parts(self, spec):
        from repro.workloads import by_name

        wl_name, target = spec.key
        expr_fp = expr_fingerprint(by_name(wl_name).expr)
        p = spec.params
        if spec.kind == "runtime":
            exclude = (f"synth:{wl_name}",) if p.leave_one_out else ()
            return (
                expr_fp, target,
                pipeline_rules_fingerprint(
                    target, True, exclude_sources=exclude,
                    lift_strategy=p.lift_strategy,
                ),
                eval_backend_fingerprint(p.eval_backend),
            )
        if spec.kind == "ablation":
            return (
                expr_fp, target,
                pipeline_rules_fingerprint(target, True),
                pipeline_rules_fingerprint(target, False),
                eval_backend_fingerprint(None),
            )
        return (
            expr_fp, target,
            pipeline_rules_fingerprint(
                target, p.use_synthesized, lift_strategy=p.lift_strategy
            ),
        )

    def _cells(self):
        """Every compile-shaped spec the sweeps and the daemon build."""
        from repro.interp import BACKENDS
        from repro.lifting import LIFT_STRATEGIES
        from repro.targets import ALL_TARGETS
        from repro.workloads import WORKLOADS

        for wl, target in itertools.product(WORKLOADS, ALL_TARGETS):
            key = (wl, target)
            yield TaskSpec("ablation", key)
            for synth, strategy in itertools.product(
                (True, False), LIFT_STRATEGIES
            ):
                for kind in ("compile", "coverage", "machinelint"):
                    yield TaskSpec(kind, key, CellParams(synth, strategy))
            for rake, loo, strategy, backend in itertools.product(
                (False, True), (False, True), LIFT_STRATEGIES, BACKENDS
            ):
                yield TaskSpec(
                    "runtime", key,
                    RuntimeParams(rake, loo, strategy, backend),
                )

    def test_memoized_parts_equal_the_reference(self):
        from repro.workloads import WORKLOADS

        for spec in self._cells():
            parts = get_job_kind(spec.kind).cache_parts
            reference = self._reference_parts(spec)
            assert parts(spec) == reference, spec
            assert parts(spec) == reference, spec  # served from the memo
        # One entry per workload, and per (target, flag, strategy,
        # exclusion) combination: the memos are bounded by the cells.
        assert workload_fingerprint.cache_info().currsize <= len(WORKLOADS)

    def test_memo_does_not_grow_with_requests(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        compile_spec = TaskSpec("compile", ("add", "arm-neon"), CellParams())
        lookup_task(compile_spec, cache)
        sizes = (
            workload_fingerprint.cache_info().currsize,
            cell_rules_fingerprint.cache_info().currsize,
        )
        for seed in range(300):
            hit, ckey = lookup_task(TaskSpec(
                "verify-rule", ("lifting-hand", "lift-widening-add"),
                VerifyParams(seed=seed, eval_backend="closure"),
            ), cache)
            assert hit is None and ckey is not None
            lookup_task(compile_spec, cache)
        assert (
            workload_fingerprint.cache_info().currsize,
            cell_rules_fingerprint.cache_info().currsize,
        ) == sizes
