"""The fabric's headline guarantee: ``jobs=N`` output == ``jobs=1``.

Each sweep runs in a :class:`~repro.session.CompilerSession` (``jobs``,
cache, metrics); a bare task list runs on a ``WorkerPool`` or inline.

Reports are compared as rendered bytes (JSON / tables), not just as
semantically-equal objects — CI diffs artifacts across runs, so byte
identity is the contract.
"""

import pytest

from repro.evaluation.ablation import run_ablation
from repro.evaluation.coverage import run_coverage
from repro.fabric import ResultCache, TaskSpec, WorkerPool, run_tasks
from repro.fabric.jobs import VerifyParams
from repro.observe import MetricsRegistry
from repro.rulesets import rule_set
from repro.session import CompilerSession
from repro.synthesis.driver import synthesize_lifting_rules

WORKLOADS = ["add", "mean", "softmax"]


class TestCoverage:
    def test_parallel_coverage_is_byte_identical(self):
        serial = run_coverage(workload_names=WORKLOADS)
        with CompilerSession(jobs=4) as session:
            parallel = run_coverage(workload_names=WORKLOADS,
                                    session=session)
        assert serial.to_json() == parallel.to_json()
        assert serial.format_table(verbose=True) == parallel.format_table(
            verbose=True
        )

    def test_cached_coverage_is_byte_identical(self, tmp_path):
        serial = run_coverage(workload_names=WORKLOADS)
        cache = ResultCache(root=str(tmp_path))
        with CompilerSession(cache=cache) as session:
            cold = run_coverage(workload_names=WORKLOADS, session=session)
            warm = run_coverage(workload_names=WORKLOADS, session=session)
        assert serial.to_json() == cold.to_json() == warm.to_json()
        assert cache.hits > 0

    def test_merged_metrics_match_serial_totals(self):
        # Per-cell registries merged in input order must sum to exactly
        # what the old shared-registry sweep accumulated.
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        with CompilerSession(metrics=serial) as session:
            run_coverage(workload_names=WORKLOADS, session=session)
        with CompilerSession(jobs=4, metrics=parallel) as session:
            run_coverage(workload_names=WORKLOADS, session=session)
        for counter in serial.counters("rule_fired"):
            assert parallel.counter_value(
                "rule_fired", **dict(counter.labels)
            ) == counter.value


def _small():
    """A budget below the ``rules --verify`` default, on the backend the
    suite runs under."""
    return VerifyParams(max_type_combos=4, max_const_samples=3,
                        max_points=200)


def _verify_hand_rules(params, **fabric):
    """One ``verify-rule`` task per hand lifting rule, at ``params``."""
    specs = [
        TaskSpec("verify-rule", key=("lifting-hand", r.name), params=params)
        for r in rule_set("lifting-hand").rules
    ]
    return run_tasks(specs, **fabric)


class TestVerification:
    @pytest.fixture(scope="class")
    def serial(self):
        return _verify_hand_rules(_small())

    def _key(self, results):
        return [(r.spec.key, r.ok, r.value) for r in results]

    def test_parallel_verification_matches(self, serial):
        with WorkerPool(4) as pool:
            parallel = _verify_hand_rules(_small(), pool=pool)
        assert self._key(serial) == self._key(parallel)

    def test_cached_verification_matches(self, serial, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cold = _verify_hand_rules(_small(), cache=cache)
        warm = _verify_hand_rules(_small(), cache=cache)
        assert self._key(serial) == self._key(cold) == self._key(warm)
        assert cache.misses == len(serial) and cache.hits == len(serial)

    def test_different_budgets_do_not_share_entries(self, tmp_path):
        # Sample budgets are part of the key (params): a cheap verdict
        # must never satisfy a request for a thorough one.
        cache = ResultCache(root=str(tmp_path))
        _verify_hand_rules(
            VerifyParams(max_type_combos=2, max_const_samples=2,
                         max_points=50),
            cache=cache,
        )
        cache2 = ResultCache(root=str(tmp_path))
        _verify_hand_rules(_small(), cache=cache2)
        assert cache2.hits == 0


class TestEvaluationAndSynthesis:
    def test_parallel_ablation_matches(self):
        serial = run_ablation(workload_names=WORKLOADS)
        with CompilerSession(jobs=4) as session:
            parallel = run_ablation(workload_names=WORKLOADS,
                                    session=session)
        assert serial.format_table() == parallel.format_table()

    def test_fabric_synthesis_produces_identical_rules(self, tmp_path):
        serial = synthesize_lifting_rules(max_candidates=10)
        with CompilerSession(
            jobs=4, cache=ResultCache(root=str(tmp_path))
        ) as session:
            fab = synthesize_lifting_rules(max_candidates=10,
                                           session=session)
        assert serial.summary() == fab.summary()
        assert [
            (r.name, r.source, repr(r.lhs), repr(r.rhs))
            for r in serial.rules
        ] == [
            (r.name, r.source, repr(r.lhs), repr(r.rhs))
            for r in fab.rules
        ]
