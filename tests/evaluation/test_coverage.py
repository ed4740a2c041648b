"""Tests for the rule-coverage sweep (``python -m repro coverage``)."""

import json

import pytest

from repro.evaluation.coverage import run_coverage
from repro.targets import ARM


@pytest.fixture(scope="module")
def arm_report():
    """One small sweep shared by the module: two workloads, one target."""
    return run_coverage(
        workload_names=["sobel3x3", "add"], targets=[ARM]
    )


class TestRunCoverage:
    def test_enumerates_every_registered_rule(self, arm_report):
        from repro.lifting import HAND_RULES, SYNTHESIZED_RULES

        names = {r.name for r in arm_report.rows}
        for rule in list(HAND_RULES) + list(SYNTHESIZED_RULES):
            assert rule.name in names
        for rule in ARM.lowering_rules:
            assert rule.name in names
        rulesets = {r.ruleset for r in arm_report.rows}
        assert rulesets == {"lifting", "arm-neon"}

    def test_fire_counts_reflect_the_compiles(self, arm_report):
        fires = {r.name: r.fires for r in arm_report.rows}
        # sobel3x3 on ARM is the paper's running example: uabd fires.
        assert fires["arm-uabd"] >= 1
        assert fires["lift-extending-add"] >= 1

    def test_dead_rule_classification(self, arm_report):
        dead = {r.name for r in arm_report.dead}
        assert all(r.fires == 0 for r in arm_report.dead)
        # A two-workload sweep cannot cover the saturating-sub rules.
        assert "lift-saturating-sub" in dead
        hand_dead = {r.name for r in arm_report.dead_hand_rules}
        assert hand_dead <= dead
        assert all(r.is_hand for r in arm_report.dead_hand_rules)
        assert arm_report.ok is (not hand_dead)

    def test_sweep_parameters_recorded(self, arm_report):
        assert arm_report.workloads == ["add", "sobel3x3"]
        assert arm_report.targets == ["arm-neon"]
        assert arm_report.failures == []


class TestRendering:
    def test_format_table_summarizes(self, arm_report):
        text = arm_report.format_table()
        assert "rule coverage over 2 workloads x 1 targets" in text
        assert "-- lifting:" in text
        assert "-- arm-neon:" in text
        assert "coverage:" in text
        # Non-verbose output omits per-rule lines for live rules.
        assert "arm-uabd " not in text.replace("\n", " ")

    def test_format_table_verbose_lists_rules(self, arm_report):
        text = arm_report.format_table(verbose=True)
        assert "arm-uabd" in text
        assert "lift-extending-add" in text

    def test_to_json_round_trip(self, arm_report):
        data = json.loads(arm_report.to_json())
        assert data["targets"] == ["arm-neon"]
        assert len(data["rules"]) == len(arm_report.rows)
        assert set(data["dead_hand_rules"]) == {
            r.name for r in arm_report.dead_hand_rules
        }
        one = data["rules"][0]
        assert {"name", "source", "phase", "ruleset", "fires"} <= set(one)
