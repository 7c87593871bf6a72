"""MetricRegistry: counters, gauges, histograms, merge, serialization."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Counter, Gauge, Histogram, MetricRegistry, metric_name


class TestMetricName:
    def test_joins_with_dots(self):
        assert metric_name("sm", 3, "warp_steps") == "sm.3.warp_steps"

    def test_dashes_normalized(self):
        assert metric_name("stm", "hv-sorting", "aborts") == "stm.hv_sorting.aborts"


class TestCounter:
    def test_add_defaults_to_one(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(7)
        assert gauge.value == 7


class TestHistogram:
    def test_power_of_two_buckets(self):
        histogram = Histogram("h")
        assert histogram.bucket_of(0) == 0
        assert histogram.bucket_of(1) == 1
        assert histogram.bucket_of(2) == 2
        assert histogram.bucket_of(3) == 2
        assert histogram.bucket_of(4) == 3
        assert histogram.bucket_of(1023) == 10

    def test_observe_tracks_extrema(self):
        histogram = Histogram("h")
        for value in (5, 1, 9):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 15
        assert histogram.min == 1 and histogram.max == 9

    def test_merge_is_bucketwise(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(3)
        b.observe(3)
        b.observe(100)
        a.merge(b)
        assert a.count == 3
        assert a.buckets[a.bucket_of(3)] == 2
        assert a.max == 100

    def test_dict_roundtrip(self):
        histogram = Histogram("h")
        histogram.observe(42)
        clone = Histogram.from_dict("h", histogram.as_dict())
        assert clone.as_dict() == histogram.as_dict()


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricRegistry()
        registry.counter("a.b").add(2)
        registry.add("a.b", 3)
        assert registry.counters_dict() == {"a.b": 5}

    def test_absorb_counters_prefixes(self):
        registry = MetricRegistry()
        registry.absorb_counters("stm.hv_sorting", {"commits": 7, "aborts": 2})
        assert registry.counters_dict()["stm.hv_sorting.commits"] == 7

    def test_merge_counters_sum_gauges_overwrite(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.add("runs", 1)
        a.set_gauge("clock", 5)
        b.add("runs", 2)
        b.set_gauge("clock", 9)
        a.merge(b)
        assert a.counters_dict()["runs"] == 3
        assert a.gauges_dict()["clock"] == 9

    def test_merge_keeps_gauge_when_other_unset(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.set_gauge("clock", 5)
        b.gauge("clock")  # created but never set
        a.merge(b)
        assert a.gauges_dict()["clock"] == 5

    def test_dict_roundtrip(self):
        registry = MetricRegistry()
        registry.add("x.y", 4)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 12)
        clone = MetricRegistry.from_dict(registry.as_dict())
        assert clone.as_dict() == registry.as_dict()

    def test_write_json(self, tmp_path):
        registry = MetricRegistry()
        registry.add("k", 1)
        path = os.path.join(str(tmp_path), "m.json")
        registry.write_json(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["counters"] == {"k": 1}


# property: merging any collection of registries sums every counter — the
# cross-process aggregation invariant the sweeps rely on
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["a", "a.b", "stm.commits", "sm.0.cycles"]),
            st.integers(min_value=0, max_value=10**6),
            max_size=4,
        ),
        max_size=5,
    )
)
def test_merge_sums_counters_property(worker_counters):
    merged = MetricRegistry()
    for counters in worker_counters:
        worker = MetricRegistry()
        for name, value in counters.items():
            worker.add(name, value)
        # JSON round-trip: exactly what crosses the process boundary
        merged.merge(MetricRegistry.from_dict(worker.as_dict()))
    for name in {k for c in worker_counters for k in c}:
        expected = sum(c.get(name, 0) for c in worker_counters)
        assert merged.counters_dict().get(name, 0) == expected


class TestFirstViolationGauges:
    """sanitizer.first_violation.* merges with min() across workers:
    "cycle of the first violation" only aggregates as the earliest."""

    NAME = "sanitizer.first_violation.lock_leak"

    def test_merge_keeps_earliest_cycle(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.set_gauge(self.NAME, 500)
        b.set_gauge(self.NAME, 300)
        a.merge(b)
        assert a.gauges_dict()[self.NAME] == 300

    def test_merge_keeps_own_earlier_cycle(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.set_gauge(self.NAME, 200)
        b.set_gauge(self.NAME, 900)
        a.merge(b)
        assert a.gauges_dict()[self.NAME] == 200

    def test_merge_adopts_value_when_unset(self):
        a, b = MetricRegistry(), MetricRegistry()
        b.set_gauge(self.NAME, 700)
        a.merge(b)
        assert a.gauges_dict()[self.NAME] == 700

    def test_ordinary_gauges_still_overwrite(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.set_gauge("sanitizer.other", 100)
        b.set_gauge("sanitizer.other", 900)
        a.merge(b)
        assert a.gauges_dict()["sanitizer.other"] == 900

    def test_min_merge_survives_json_round_trip(self):
        # exactly what crosses the worker process boundary
        merged = MetricRegistry()
        for cycle in (800, 150, 400):
            worker = MetricRegistry()
            worker.set_gauge(self.NAME, cycle)
            merged.merge(MetricRegistry.from_dict(worker.as_dict()))
        assert merged.gauges_dict()[self.NAME] == 150
