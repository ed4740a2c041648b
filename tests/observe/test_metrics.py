"""Unit tests for the counter/histogram registry."""

import json
import random

import pytest

from repro.observe import (
    MetricsRegistry,
    QUANTILE_RELATIVE_ERROR,
    global_metrics,
)


class TestCounters:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        c1 = reg.counter("rule_fired", rule="a")
        c2 = reg.counter("rule_fired", rule="a")
        c3 = reg.counter("rule_fired", rule="b")
        assert c1 is c2
        assert c1 is not c3

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("m", a=1, b=2) is reg.counter("m", b=2, a=1)

    def test_inc_and_value_lookup(self):
        reg = MetricsRegistry()
        reg.counter("hits", phase="lift").inc()
        reg.counter("hits", phase="lift").inc(3)
        assert reg.counter_value("hits", phase="lift") == 4
        assert reg.counter_value("hits", phase="lower") == 0

    def test_iteration_filters_by_name(self):
        reg = MetricsRegistry()
        reg.counter("a", x=1).inc()
        reg.counter("a", x=2).inc()
        reg.counter("b").inc()
        assert len(list(reg.counters("a"))) == 2
        assert len(list(reg.counters())) == 3


class TestHistograms:
    def test_observe_tracks_count_total_min_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("passes")
        for v in (1, 5, 3):
            h.observe(v)
        assert h.count == 3
        assert h.total == 9
        assert h.min == 1
        assert h.max == 5
        assert h.mean == 3

    def test_empty_histogram_mean(self):
        reg = MetricsRegistry()
        assert reg.histogram("empty").mean == 0.0

    def test_empty_histogram_quantile_is_none(self):
        reg = MetricsRegistry()
        assert reg.histogram("empty").quantile(0.5) is None

    def test_quantile_fraction_out_of_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_single_sample_quantiles_are_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(42.0)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 42.0

    def test_quantile_relative_error_bound(self):
        """Random workloads: every estimate within the documented bound."""
        rng = random.Random(7)
        for scale in (1e-4, 1.0, 1e5):
            reg = MetricsRegistry()
            h = reg.histogram("h")
            samples = [rng.expovariate(1.0) * scale for _ in range(2000)]
            for v in samples:
                h.observe(v)
            samples.sort()
            for q in (0.01, 0.1, 0.5, 0.9, 0.99):
                # The sketch selects the order statistic of rank
                # floor(q * (n - 1)) — compare against that sample.
                true = samples[int(q * (len(samples) - 1))]
                est = h.quantile(q)
                assert abs(est - true) <= (
                    QUANTILE_RELATIVE_ERROR * true + 1e-12
                ), (scale, q, true, est)

    def test_quantile_with_negative_and_zero_samples(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (-8.0, -2.0, 0.0, 2.0, 8.0):
            h.observe(v)
        assert h.quantile(0.0) == -8.0
        assert h.quantile(1.0) == 8.0
        assert h.quantile(0.5) == 0.0
        lo = h.quantile(0.25)
        assert lo < 0 and abs(lo - (-2.0)) <= 2.0 * QUANTILE_RELATIVE_ERROR


class TestExport:
    def test_to_dict_and_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("rule_fired", rule="r", source="hand").inc(2)
        reg.histogram("fixpoint", phase="lift").observe(4)
        data = json.loads(reg.to_json())
        assert data == reg.to_dict()
        (c,) = data["counters"]
        assert c["name"] == "rule_fired"
        assert c["labels"] == {"rule": "r", "source": "hand"}
        assert c["value"] == 2
        (h,) = data["histograms"]
        assert h["name"] == "fixpoint"
        assert h["count"] == 1

    def test_global_registry_is_a_singleton(self):
        assert global_metrics() is global_metrics()


class TestMergeSnapshot:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", k="x").inc(2)
        b.counter("n", k="x").inc(3)
        b.counter("n", k="y").inc(1)
        a.merge_snapshot(b.to_dict())
        assert a.counter_value("n", k="x") == 5
        assert a.counter_value("n", k="y") == 1

    def test_empty_snapshot_is_a_noop(self):
        a = MetricsRegistry()
        a.counter("n").inc()
        before = a.to_dict()
        a.merge_snapshot(MetricsRegistry().to_dict())
        a.merge_snapshot({})
        assert a.to_dict() == before

    def test_sharded_merge_equals_combined_stream(self):
        """K per-worker sketches merged == one sketch over everything."""
        rng = random.Random(3)
        samples = [rng.lognormvariate(0.0, 2.0) for _ in range(3000)]
        combined = MetricsRegistry()
        hc = combined.histogram("t", phase="lift")
        shards = [MetricsRegistry() for _ in range(4)]
        for i, v in enumerate(samples):
            hc.observe(v)
            shards[i % 4].histogram("t", phase="lift").observe(v)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge_snapshot(shard.to_dict())
        hm = merged.histogram("t", phase="lift")
        assert hm.count == hc.count
        assert hm.buckets == hc.buckets
        assert hm.min == hc.min and hm.max == hc.max
        for q in (0.1, 0.5, 0.9, 0.99):
            assert hm.quantile(q) == hc.quantile(q)
        # Totals only agree to float addition order.
        assert hm.total == pytest.approx(hc.total)

    def test_merge_json_round_tripped_snapshot(self):
        """Snapshots travel through JSON; merging the decoded dict must
        behave identically (bucket keys arrive as strings)."""
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.5, 2.0, -3.0, 0.0):
            b.histogram("h").observe(v)
        a.merge_snapshot(json.loads(b.to_json()))
        ha = a.histogram("h")
        hb = b.histogram("h")
        assert ha.buckets == hb.buckets
        assert ha.neg_buckets == hb.neg_buckets
        assert ha.zeros == hb.zeros

    def test_label_value_str_coercion_collision(self):
        """``labels={"n": 1}`` and ``{"n": "1"}`` are the SAME instrument
        — documented behaviour so snapshots survive JSON transport."""
        reg = MetricsRegistry()
        reg.counter("c", n=1).inc()
        reg.counter("c", n="1").inc()
        assert reg.counter_value("c", n=1) == 2
        assert len(list(reg.counters("c"))) == 1


class TestPrometheus:
    def test_counter_exposition(self):
        reg = MetricsRegistry()
        reg.counter("rule_fired", rule="a-b", source="hand").inc(4)
        text = reg.to_prometheus()
        assert "# TYPE repro_rule_fired counter" in text
        assert 'repro_rule_fired{rule="a-b",source="hand"} 4' in text
        assert text.endswith("\n")

    def test_histogram_summary_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("pass_seconds", stage="lift")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        text = reg.to_prometheus()
        assert "# TYPE repro_pass_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert 'repro_pass_seconds_sum{stage="lift"} 10' in text
        assert 'repro_pass_seconds_count{stage="lift"} 4' in text

    def test_name_sanitization_and_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.x", label='va"l').inc()
        text = reg.to_prometheus(prefix="p_")
        assert "# TYPE p_weird_name_x counter" in text
        assert 'label="va\\"l"' in text


class TestGauges:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(5)
        assert reg.gauge_value("queue_depth") == 5.0
        g.inc()
        g.inc(2)
        g.dec(3)
        assert g.value == 5.0
        g.set(0)
        assert reg.gauge_value("queue_depth") == 0.0

    def test_gauge_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        assert reg.gauge("conns", port=1) is reg.gauge("conns", port=1)
        assert reg.gauge("conns", port=1) is not reg.gauge("conns", port=2)

    def test_untouched_gauge_reads_zero(self):
        assert MetricsRegistry().gauge_value("never") == 0.0

    def test_gauges_can_go_negative(self):
        reg = MetricsRegistry()
        reg.gauge("delta").dec(2.5)
        assert reg.gauge_value("delta") == -2.5

    def test_snapshot_omits_the_key_when_unused(self):
        # The checked-in report baseline predates gauges; an idle
        # registry must keep producing the historical snapshot shape.
        reg = MetricsRegistry()
        reg.counter("c").inc()
        assert "gauges" not in reg.to_dict()
        reg.gauge("g").set(1)
        assert reg.to_dict()["gauges"] == [
            {"name": "g", "labels": {}, "value": 1.0}
        ]

    def test_merge_snapshot_sums_levels(self):
        # Fleet-wide level = sum of per-process levels (each worker
        # reports its own queue depth; merged, that is the total).
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth", lane="q").set(3)
        b.gauge("depth", lane="q").set(4)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.to_dict())
        merged.merge_snapshot(b.to_dict())
        assert merged.gauge_value("depth", lane="q") == 7.0

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.gauge("queue_depth", lane="fabric").set(3)
        text = reg.to_prometheus()
        assert "# TYPE repro_queue_depth gauge" in text
        assert 'repro_queue_depth{lane="fabric"} 3' in text

    def test_len_includes_gauges(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(1)
        assert len(reg) == 3
