"""The fabric's headline guarantee: ``jobs=N`` output == ``jobs=1``.

Reports are compared as rendered bytes (JSON / tables), not just as
semantically-equal objects — CI diffs artifacts across runs, so byte
identity is the contract.
"""

import pytest

from repro.evaluation.ablation import run_ablation
from repro.evaluation.coverage import run_coverage
from repro.fabric import ResultCache
from repro.observe import MetricsRegistry
from repro.synthesis.driver import synthesize_lifting_rules
from repro.verify import batch_verify_rules

WORKLOADS = ["add", "mean", "softmax"]


class TestCoverage:
    def test_parallel_coverage_is_byte_identical(self):
        serial = run_coverage(workload_names=WORKLOADS, jobs=1)
        parallel = run_coverage(workload_names=WORKLOADS, jobs=4)
        assert serial.to_json() == parallel.to_json()
        assert serial.format_table(verbose=True) == parallel.format_table(
            verbose=True
        )

    def test_cached_coverage_is_byte_identical(self, tmp_path):
        serial = run_coverage(workload_names=WORKLOADS, jobs=1)
        cache = ResultCache(root=str(tmp_path))
        cold = run_coverage(workload_names=WORKLOADS, cache=cache)
        warm = run_coverage(workload_names=WORKLOADS, cache=cache)
        assert serial.to_json() == cold.to_json() == warm.to_json()
        assert cache.hits > 0

    def test_merged_metrics_match_serial_totals(self):
        # Per-cell registries merged in input order must sum to exactly
        # what the old shared-registry sweep accumulated.
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        run_coverage(workload_names=WORKLOADS, jobs=1, metrics=serial)
        run_coverage(workload_names=WORKLOADS, jobs=4, metrics=parallel)
        for counter in serial.counters("rule_fired"):
            assert parallel.counter_value(
                "rule_fired", **dict(counter.labels)
            ) == counter.value


class TestVerification:
    @pytest.fixture(scope="class")
    def serial(self):
        return batch_verify_rules(
            ["lifting-hand"], jobs=1, max_type_combos=4,
            max_const_samples=3, max_points=200,
        )

    def _key(self, results):
        return [
            (label, r.rule_name, r.ok, r.checked_combos, r.checked_points)
            for label, r in results
        ]

    def test_parallel_verification_matches(self, serial):
        parallel = batch_verify_rules(
            ["lifting-hand"], jobs=4, max_type_combos=4,
            max_const_samples=3, max_points=200,
        )
        assert self._key(serial) == self._key(parallel)

    def test_cached_verification_matches(self, serial, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cold = batch_verify_rules(
            ["lifting-hand"], cache=cache, max_type_combos=4,
            max_const_samples=3, max_points=200,
        )
        warm = batch_verify_rules(
            ["lifting-hand"], cache=cache, max_type_combos=4,
            max_const_samples=3, max_points=200,
        )
        assert self._key(serial) == self._key(cold) == self._key(warm)
        assert cache.misses == len(serial) and cache.hits == len(serial)

    def test_different_budgets_do_not_share_entries(self, tmp_path):
        # Sample budgets are part of the key (params): a cheap verdict
        # must never satisfy a request for a thorough one.
        cache = ResultCache(root=str(tmp_path))
        batch_verify_rules(
            ["lifting-hand"], cache=cache, max_type_combos=2,
            max_const_samples=2, max_points=50,
        )
        cache2 = ResultCache(root=str(tmp_path))
        batch_verify_rules(
            ["lifting-hand"], cache=cache2, max_type_combos=4,
            max_const_samples=3, max_points=200,
        )
        assert cache2.hits == 0


class TestEvaluationAndSynthesis:
    def test_parallel_ablation_matches(self):
        serial = run_ablation(workload_names=WORKLOADS)
        parallel = run_ablation(workload_names=WORKLOADS, jobs=4)
        assert serial.format_table() == parallel.format_table()

    def test_fabric_synthesis_produces_identical_rules(self, tmp_path):
        serial = synthesize_lifting_rules(max_candidates=10)
        fab = synthesize_lifting_rules(
            max_candidates=10, jobs=4,
            cache=ResultCache(root=str(tmp_path)),
        )
        assert serial.summary() == fab.summary()
        assert [
            (r.name, r.source, repr(r.lhs), repr(r.rhs))
            for r in serial.rules
        ] == [
            (r.name, r.source, repr(r.lhs), repr(r.rhs))
            for r in fab.rules
        ]
