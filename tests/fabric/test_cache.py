"""Result-cache contract: content addressing, invalidation, resilience."""

import itertools
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric import (
    ResultCache,
    TaskSpec,
    default_cache_dir,
    encode_value,
    eval_backend_fingerprint,
    expr_fingerprint,
    get_job_kind,
    lookup_task,
    pipeline_rules_fingerprint,
    predicate_fingerprint,
    rule_fingerprint,
    rulebase_fingerprint,
    run_tasks,
    task_key,
)
from repro.fabric import cache as cache_module
from repro.fabric.fingerprint import (
    baseline_rules_fingerprint,
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

    def test_failed_store_is_counted_not_raised(self, tmp_path):
        # A root that is a regular file: every store fails, as on a
        # full disk or a read-only cache dir.
        root = tmp_path / "not-a-dir"
        root.write_text("")
        cache = ResultCache(root=str(root))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, {"v": 1})
        assert (cache.stores, cache.store_errors) == (0, 1)
        assert cache.get("t-echo", key) == (False, None)
        assert cache.session_stats()["memory_entries"] == 0
        assert cache.stats()["session"]["store_errors"] == 1

    def test_value_json_cannot_hold_is_a_failed_store(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, {"not-json": {1, 2}})
        assert (cache.stores, cache.store_errors) == (0, 1)
        assert _entry_files(tmp_path) == []
        assert [f for _d, _s, files in os.walk(tmp_path) for f in files
                if f.endswith(".tmp")] == []

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

    def test_default_argument_changes_fingerprint(self):
        # arm-sqrdmulh-16 and -32 differ only in their predicates'
        # default ``_b``; a key that missed it would share verdicts.
        def pred(m, ctx, _b=16):
            return m.consts["c0"] == _b - 1

        def kw_pred(m, ctx, *, _b=16):
            return m.consts["c0"] == _b - 1

        before = predicate_fingerprint(pred), predicate_fingerprint(kw_pred)
        pred.__defaults__ = (32,)
        kw_pred.__kwdefaults__ = {"_b": 32}
        after = predicate_fingerprint(pred), predicate_fingerprint(kw_pred)
        assert before[0] != after[0] and before[1] != after[1]
        # the same default hashes the same in every process
        pred.__defaults__ = (16,)
        assert predicate_fingerprint(pred) == before[0]

    def test_nested_code_constant_changes_fingerprint(self):
        def pred_15(m, ctx):
            return any(map(lambda c: c == 15, m.consts.values()))

        def pred_31(m, ctx):
            return any(map(lambda c: c == 31, m.consts.values()))

        assert predicate_fingerprint(pred_15) != predicate_fingerprint(
            pred_31
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
            for _ in range(300):
                # a fresh reader reads the file, not its memory tier
                reader = ResultCache(root=str(tmp_path))
                hit, value = reader.get("t-echo", key)
                # Under os.replace the entry is always whole: a miss or
                # a partial payload here would be a torn read.
                if not hit or value != payload:
                    torn.append(value)
        finally:
            stop.set()
            writer.join()
        assert torn == []


class TestMemoryTier:
    """The bounded in-memory tier of canonical text in front of the
    disk entries: read-through, LRU under a byte bound, never shared."""

    def test_put_leaves_the_tier_empty_and_a_get_fills_it(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, {"v": 1})
        assert cache.session_stats()["memory_entries"] == 0
        assert cache.get("t-echo", key) == (True, {"v": 1})
        s = cache.session_stats()
        assert (s["hits"], s["memory_hits"], s["memory_entries"]) == (1, 0, 1)
        assert s["memory_bytes"] == len(key) + len('{"v":1}')
        assert cache.get_text("t-echo", key) == '{"v":1}'
        assert cache.session_stats()["memory_hits"] == 1

    def test_memory_hit_survives_its_entry_file(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        value = {"b": [1, 2.5, "\u00e9"], "a": None}
        cache.put("t-echo", key, value)
        assert cache.get("t-echo", key) == (True, value)
        (entry,) = _entry_files(tmp_path)
        os.unlink(entry)
        assert cache.get("t-echo", key) == (True, value)
        assert (cache.hits, cache.memory_hits, cache.misses) == (2, 1, 0)

    def test_returned_values_are_never_shared(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, {"rows": [[1, 2]]})
        from_disk = cache.get("t-echo", key)[1]
        from_disk["rows"].append("mutated")
        from_memory = cache.get("t-echo", key)[1]
        from_memory["rows"][0].append("mutated")
        assert cache.get("t-echo", key) == (True, {"rows": [[1, 2]]})
        assert cache.memory_hits == 2

    def test_memory_hit_checks_the_kind(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, 1)
        assert cache.get("t-echo", key) == (True, 1)
        assert cache.get("other", key) == (False, None)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_entry_is_evicted_first(self, tmp_path, monkeypatch):
        # each entry charges its 64-char key and its 3-char text
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 3 * 67)
        cache = ResultCache(root=str(tmp_path))
        keys = [cache.key("t", str(i)) for i in range(4)]
        for k in keys:
            cache.put("t", k, "v")
        for k in keys[:3]:
            cache.get("t", k)
        assert cache.session_stats()["memory_bytes"] == 3 * 67
        cache.get("t", keys[0])  # from memory: keys[1] is now the LRU
        cache.get("t", keys[3])  # from disk: evicts keys[1]
        s = cache.session_stats()
        assert (s["memory_entries"], s["evictions"]) == (3, 1)
        for entry in _entry_files(tmp_path):
            os.unlink(entry)
        assert [cache.get("t", k)[0] for k in keys] == [
            True, False, True, True]

    def test_oversize_entry_is_served_but_not_kept(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 200)
        cache = ResultCache(root=str(tmp_path))
        small, big = cache.key("t", "small"), cache.key("t", "big")
        cache.put("t", small, "v")
        cache.put("t", big, "x" * 200)
        assert cache.get("t", small) == (True, "v")
        assert cache.get("t", big) == (True, "x" * 200)
        s = cache.session_stats()
        assert (s["memory_entries"], s["evictions"]) == (1, 0)

    def test_clear_empties_the_tier(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = cache.key("t-echo", "part")
        cache.put("t-echo", key, 1)
        cache.get("t-echo", key)
        assert cache.clear() == 1
        s = cache.session_stats()
        assert (s["memory_entries"], s["memory_bytes"]) == (0, 0)
        assert cache.get("t-echo", key) == (False, None)

    @given(st.lists(st.tuples(
        st.sampled_from(["put"] * 3 + ["get"] * 4 + ["clear"]),
        st.integers(0, 3),        # which key
        st.sampled_from(["a", "b"]),  # which kind
        st.integers(0, 3),        # which value
    ), max_size=60))
    @example([("put", 0, "a", 0), ("get", 0, "a", 0),
              ("put", 0, "a", 1), ("get", 0, "a", 0)])
    @settings(max_examples=200, deadline=None)
    def test_tier_is_invisible_but_bounded(self, ops):
        # Against a cache that keeps nothing in memory, every get agrees
        # and so do the hit and miss counts; the tier stays in bound.
        values = [None, "v" * 40, {"b": [1.5, "\u00e9"], "a": 2}, [[1]] * 30]
        bound = 300
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            with mock.patch.object(cache_module, "MEMORY_BYTES", bound):
                tiered = ResultCache(root=a)
            with mock.patch.object(cache_module, "MEMORY_BYTES", 0):
                plain = ResultCache(root=b)
            for op, k, kind, v in ops:
                key = tiered.key("t", str(k))
                for cache in (tiered, plain):
                    if op == "put":
                        cache.put(kind, key, values[v])
                    elif op == "clear":
                        cache.clear()
                if op == "get":
                    assert tiered.get(kind, key) == plain.get(kind, key)
                assert tiered.session_stats()["memory_bytes"] <= bound
            assert (tiered.hits, tiered.misses) == (plain.hits, plain.misses)
            assert plain.session_stats()["memory_entries"] == 0


    def test_threads_share_one_tier(self, tmp_path, monkeypatch):
        # More threads than cores read and store one small tier under a
        # short switch interval; a lost update would break the counts
        # or the tier's byte total.
        import threading

        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 4 * 80)
        cache = ResultCache(root=str(tmp_path))
        keys = [cache.key("t", str(i)) for i in range(8)]
        for i, k in enumerate(keys):
            cache.put("t", k, "v" * (i % 3))
        rounds, errors = 300, []

        def work(n):
            try:
                for i in range(rounds):
                    k = keys[(n + i) % len(keys)]
                    if i % 7 == 0:
                        cache.put("t", k, cache.get("t", k)[1])
                    else:
                        assert cache.get("t", k)[0]
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        s = cache.session_stats()
        puts = 4 * len(range(0, rounds, 7))
        assert (s["hits"], s["misses"]) == (4 * rounds, 0)
        assert (s["stores"], s["store_errors"]) == (len(keys) + puts, 0)
        with cache._lock:
            held = sum(len(k) + len(t) for k, (_, t)
                       in cache._memory.items())
        assert s["memory_bytes"] == held <= cache.memory_bound


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
    expression and the flows' rulebases) against the unmemoized
    fingerprint functions, which stay the reference."""

    def _reference_parts(self, spec):
        from repro.workloads import by_name

        pipeline = pipeline_rules_fingerprint.__wrapped__
        wl_name, target = spec.key
        expr_fp = expr_fingerprint(by_name(wl_name).expr)
        p = spec.params
        if spec.kind == "runtime":
            exclude = (f"synth:{wl_name}",) if p.leave_one_out else ()
            baseline = baseline_rules_fingerprint.__wrapped__
            rake = (
                (baseline("rake", target),)
                if p.with_rake and target in ("arm-neon", "hexagon-hvx")
                else ()
            )
            return (
                expr_fp, target,
                pipeline(
                    target, True, exclude_sources=exclude,
                    lift_strategy=p.lift_strategy,
                ),
                baseline("llvm", target),
                eval_backend_fingerprint(p.eval_backend),
                *rake,
            )
        if spec.kind == "ablation":
            return (
                expr_fp, target,
                pipeline(target, True),
                pipeline(target, False),
                eval_backend_fingerprint(None),
            )
        return (
            expr_fp, target,
            pipeline(
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

    def test_rule_index_agrees_with_a_scan(self):
        from repro.fabric.jobs import resolve_rule
        from repro.rulesets import rule_set
        from repro.targets import ALL_TARGETS

        assert len(ALL_TARGETS) == 6
        for label in ("lifting-hand", "lifting-synth", *ALL_TARGETS):
            rules = rule_set(label).rules
            assert rules
            for rule in rules:
                first = next(r for r in rules if r.name == rule.name)
                assert resolve_rule(label, rule.name) is first
            with pytest.raises(KeyError) as exc:
                resolve_rule(label, "no-such-rule")
            assert exc.value.args[0] == (
                f"no rule 'no-such-rule' in ruleset {label!r}"
            )

    def test_memo_does_not_grow_with_requests(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        compile_spec = TaskSpec("compile", ("add", "arm-neon"), CellParams())
        lookup_task(compile_spec, cache)
        sizes = (
            workload_fingerprint.cache_info().currsize,
            pipeline_rules_fingerprint.cache_info().currsize,
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
            pipeline_rules_fingerprint.cache_info().currsize,
        ) == sizes


class TestRuntimeKey:
    """A Figure 5 cell reports PITCHFORK, LLVM and (with ``with_rake``)
    Rake cycles, so its key hashes the rules of all three compilers, as
    the registry gives them."""

    SPEC = TaskSpec(
        "runtime", ("sobel3x3", "arm-neon"),
        RuntimeParams(with_rake=True, leave_one_out=True),
    )

    @pytest.fixture(autouse=True)
    def _fresh_baseline_memo(self):
        baseline_rules_fingerprint.cache_clear()
        yield
        baseline_rules_fingerprint.cache_clear()

    def _swap_first(self, monkeypatch, flow, field, other):
        """Serve ``flow`` from the registry with the first rule of its
        ``field`` list replaced by ``other``."""
        from repro import rulesets

        real = getattr(rulesets, flow)

        def swapped(*args, **kwargs):
            rules = real(*args, **kwargs)
            kept = getattr(rules, field)
            return rules._replace(**{field: (other, *kept[1:])})

        monkeypatch.setattr(rulesets, flow, swapped)
        baseline_rules_fingerprint.cache_clear()

    def test_swapping_an_llvm_pattern_or_a_rake_move_changes_the_key(
        self, tmp_path, monkeypatch
    ):
        from repro import rulesets
        from repro.pipeline import LLVMCompiler
        from repro.targets import ARM

        cache = ResultCache(root=str(tmp_path))
        before = task_key(self.SPEC, cache)
        other = rulesets.pitchfork(ARM).lower[0]

        self._swap_first(monkeypatch, "llvm", "lower", other)
        assert task_key(self.SPEC, cache) != before
        select = LLVMCompiler(ARM).passes.passes[0]
        assert select.plain.lowerer.engine.rules[0] is other
        monkeypatch.undo()

        self._swap_first(monkeypatch, "rake", "moves", other)
        assert task_key(self.SPEC, cache) != before
        monkeypatch.undo()

        baseline_rules_fingerprint.cache_clear()
        assert task_key(self.SPEC, cache) == before

    def test_key_derivations_leave_the_rule_memo_unchanged(self, tmp_path):
        from repro import rulesets
        from repro.fabric.fingerprint import _RULE_FP_MEMO
        from repro.targets import ARM, HVX

        cache = ResultCache(root=str(tmp_path))
        specs = [
            TaskSpec("runtime", (wl, target), RuntimeParams(rake, loo))
            for wl, target, rake, loo in itertools.product(
                ("add", "sobel3x3"), ("x86-avx2", "arm-neon", "hexagon-hvx"),
                (False, True), (False, True),
            )
        ]
        for spec in specs:
            task_key(spec, cache)
        size = len(_RULE_FP_MEMO)
        for i in range(1000):
            task_key(specs[i % len(specs)], cache)
        assert len(_RULE_FP_MEMO) == size
        # the keys hashed the registry's own LLVM and Rake rule objects
        for target in (ARM, HVX):
            for rule in (
                *rulesets.llvm(target, q31=True).lower,
                *rulesets.rake(target).moves,
            ):
                assert _RULE_FP_MEMO[id(rule)][0] is rule
