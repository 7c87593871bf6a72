"""The telemetry artifact validator (also the CI smoke gate)."""

import json
import os

import pytest

from repro.telemetry import MetricRegistry
from repro.telemetry.validate import (
    ValidationError,
    main,
    validate_chrome_trace,
    validate_file,
    validate_metrics,
)


def good_trace():
    return {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": "launch 0"}},
            {"ph": "X", "cat": "phase", "pid": 0, "tid": 0, "name": "native",
             "ts": 0, "dur": 5},
            {"ph": "i", "s": "t", "cat": "instant", "pid": 0, "tid": 0,
             "name": "fence", "ts": 2},
        ],
    }


class TestChromeTrace:
    def test_accepts_good_trace(self):
        assert validate_chrome_trace(good_trace()) == 3

    def test_rejects_non_dict(self):
        with pytest.raises(ValidationError):
            validate_chrome_trace([])

    def test_rejects_missing_events(self):
        with pytest.raises(ValidationError):
            validate_chrome_trace({})

    def test_rejects_negative_duration(self):
        trace = good_trace()
        trace["traceEvents"][1]["dur"] = -1
        with pytest.raises(ValidationError):
            validate_chrome_trace(trace)

    def test_rejects_complete_event_without_timestamp(self):
        trace = good_trace()
        del trace["traceEvents"][1]["ts"]
        with pytest.raises(ValidationError):
            validate_chrome_trace(trace)

    def test_rejects_unknown_metadata(self):
        trace = good_trace()
        trace["traceEvents"][0]["name"] = "frobnicate"
        with pytest.raises(ValidationError):
            validate_chrome_trace(trace)


class TestMetrics:
    def test_accepts_registry_dump(self):
        registry = MetricRegistry()
        registry.add("a.b", 2)
        registry.observe("h", 3)
        assert validate_metrics(registry.as_dict()) == 1

    def test_rejects_non_numeric_counter(self):
        with pytest.raises(ValidationError):
            validate_metrics({"counters": {"a": "lots"}})

    def test_rejects_histogram_without_count(self):
        with pytest.raises(ValidationError):
            validate_metrics({"counters": {}, "histograms": {"h": {}}})


class TestCli:
    def write(self, tmp_path, name, data):
        path = os.path.join(str(tmp_path), name)
        with open(path, "w") as handle:
            json.dump(data, handle)
        return path

    def test_dispatches_on_shape(self, tmp_path):
        trace = self.write(tmp_path, "t.json", good_trace())
        metrics = self.write(tmp_path, "m.json", MetricRegistry().as_dict())
        assert "Chrome trace" in validate_file(trace)
        assert "metrics" in validate_file(metrics)

    def test_main_exit_codes(self, tmp_path, capsys):
        good = self.write(tmp_path, "good.json", good_trace())
        bad = self.write(tmp_path, "bad.json", {"traceEvents": [{"ph": 7}]})
        assert main([good]) == 0
        assert main([good, bad]) == 1
        assert main([]) == 2
        captured = capsys.readouterr()
        assert "INVALID" in captured.err


def _plain_verdict(data):
    """The verdict of checking a fully decoded artifact."""
    try:
        if isinstance(data, dict) and "traceEvents" in data:
            validate_chrome_trace(data)
        else:
            validate_metrics(data)
    except ValidationError as exc:
        return str(exc)
    return None


#: artifacts whose verdict must not depend on checking events as they
#: are decoded: event-shaped objects in places that are not events
STREAMING_CASES = {
    "good": good_trace(),
    "event-shaped args": {"traceEvents": [
        {"ph": "M", "name": "thread_name", "args": {"ph": "i", "ts": 0,
                                                    "name": "main"}}]},
    "event-shaped args without a name": {"traceEvents": [
        {"ph": "M", "name": "thread_name", "args": {"ph": "B"}}]},
    "not an object": {"traceEvents": [{"ph": "B"}, 7, {"ph": "B"}]},
    "no ph": {"traceEvents": [{"ph": "B"}, {"name": "x"}]},
    "root with ph": {"ph": "B", "traceEvents": [{"ph": "B"}]},
    "events not a list": {"traceEvents": {"ph": "B"}},
    "counter named ph": {"counters": {"ph": "i", "ts": 1, "name": "n"}},
    "metrics": {"counters": {"a": 1}, "histograms": {"h": {"count": 1}}},
}


class TestValidateFileStreams:
    @pytest.mark.parametrize("name", sorted(STREAMING_CASES))
    def test_same_verdict_as_a_decoded_check(self, name, tmp_path):
        data = STREAMING_CASES[name]
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(data))
        try:
            validate_file(str(path))
            verdict = None
        except ValidationError as exc:
            verdict = str(exc)
        assert verdict == _plain_verdict(data)

    def test_bad_event_deep_in_a_trace_reports_its_index(self, tmp_path):
        events = [{"ph": "X", "pid": 0, "tid": 1, "name": "tx", "ts": index,
                   "dur": 1, "args": {"attempt": index}}
                  for index in range(5000)]
        events[3717]["dur"] = -2
        events[4200]["pid"] = "gpu"
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        with pytest.raises(ValidationError) as exc:
            validate_file(str(path))
        assert str(exc.value) == (
            "event 3717: 'dur' must be a non-negative number, got -2")
