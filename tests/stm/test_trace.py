"""TxTracer: the transaction-event tracing facility."""

import os

from repro.stm.trace import TxEvent, TxTracer, observer_seams
from tests.stm.helpers import counter_kernel, make_stm_device


def traced_run(variant="hv-sorting", capacity=None):
    device, runtime, data, _ = make_stm_device(variant, data_size=4)
    tracer = TxTracer(capacity=capacity)
    runtime.tracer = tracer
    device.launch(counter_kernel(data, 3), 1, 8, attach=runtime.attach)
    return runtime, tracer


class TestTracer:
    def test_commit_events_match_stats(self):
        runtime, tracer = traced_run()
        assert len(tracer.commits()) == runtime.stats["commits"]
        assert len(tracer.aborts()) == runtime.stats["aborts"]

    def test_abort_reason_histogram(self):
        runtime, tracer = traced_run()
        histogram = tracer.abort_reasons()
        assert sum(histogram.values()) == runtime.stats["aborts"]
        for reason, count in histogram.items():
            assert runtime.stats["aborts.%s" % reason] == count

    def test_events_are_ordered(self):
        _runtime, tracer = traced_run()
        sequences = [event.sequence for event in tracer.events]
        assert sequences == sorted(sequences)

    def test_commit_events_carry_versions(self):
        _runtime, tracer = traced_run()
        versions = [event.version for event in tracer.commits()]
        assert all(v is not None for v in versions)

    def test_capacity_limits_and_counts_drops(self):
        _runtime, tracer = traced_run(capacity=5)
        assert len(tracer.events) == 5
        assert tracer.dropped > 0

    def test_hottest_threads_ranked(self):
        _runtime, tracer = traced_run()
        ranking = tracer.hottest_threads(top=3)
        counts = [count for _tid, count in ranking]
        assert counts == sorted(counts, reverse=True)

    def test_summary_mentions_counts(self):
        runtime, tracer = traced_run()
        summary = tracer.summary()
        assert "%d commits" % runtime.stats["commits"] in summary

    def test_to_csv_roundtrip(self, tmp_path):
        _runtime, tracer = traced_run()
        path = os.path.join(str(tmp_path), "trace.csv")
        rows = tracer.to_csv(path)
        with open(path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == TxTracer.CSV_HEADER
        assert len(lines) == rows + 1

    def test_empty_tracer_edges(self):
        tracer = TxTracer()
        assert tracer.commits() == []
        assert tracer.aborts() == []
        assert tracer.abort_reasons() == {}
        assert tracer.hottest_threads() == []
        assert "0 commits, 0 aborts" in tracer.summary()

    def test_empty_tracer_csv_is_header_only(self, tmp_path):
        tracer = TxTracer()
        path = os.path.join(str(tmp_path), "empty.csv")
        assert tracer.to_csv(path) == 0
        with open(path) as handle:
            assert handle.read().strip() == TxTracer.CSV_HEADER

    def test_zero_capacity_drops_everything_but_keeps_counting(self):
        _runtime, tracer = traced_run(capacity=0)
        assert tracer.events == []
        assert tracer.dropped > 0
        assert "dropped" in tracer.summary()

    def test_aborts_filter_by_reason(self):
        runtime, tracer = traced_run()
        for reason in tracer.abort_reasons():
            filtered = tracer.aborts(reason)
            assert filtered
            assert all(e.reason == reason for e in filtered)
        assert tracer.aborts("no-such-reason") == []

    def test_hottest_threads_top_bounds_result(self):
        _runtime, tracer = traced_run()
        assert len(tracer.hottest_threads(top=1)) <= 1

    def test_csv_quotes_reasons_containing_commas(self, tmp_path):
        import csv

        class FakeTc:
            tid = 1

        class FakeTx:
            tc = FakeTc()

            def read_entries(self):
                return []

            def write_entries(self):
                return {}

        tracer = TxTracer()
        tracer.on_abort(FakeTx(), "conflict at 3, retried")
        path = os.path.join(str(tmp_path), "quoted.csv")
        tracer.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == TxTracer.CSV_HEADER.split(",")
        assert rows[1][3] == "conflict at 3, retried"  # one field, not two

    def test_as_row_substitutes_empty_strings(self):
        event = TxEvent(1, 2, "abort", None, 3, 4, None)
        row = event.as_row()
        assert row[3] == "" and row[6] == ""

    def test_event_repr(self):
        class FakeTc:
            tid = 3

        class FakeTx:
            tc = FakeTc()

            def read_entries(self):
                return [(1, 2)]

            def write_entries(self):
                return {5: 6}

        tracer = TxTracer()
        tracer.on_abort(FakeTx(), "validation")
        event = tracer.events[0]
        assert isinstance(event, TxEvent)
        assert "abort:validation" in repr(event)
        assert event.reads == 1 and event.writes == 1


class _Recorder:
    """An observer implementing every seam, logging calls into ``log``."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_commit(self, tx, version):
        self.log.append((self.name, "commit"))

    def on_abort(self, tx, reason):
        self.log.append((self.name, "abort"))

    def on_tx_read(self, tx, addr):
        self.log.append((self.name, "read"))

    def filter_validation(self, tx, stage, verdict):
        self.log.append((self.name, "filter"))
        return verdict


class TestObserverSlot:
    def test_empty_slot_resolves_no_seams(self):
        assert observer_seams(None) == (None, None, None, None)

    def test_one_observer_seams_are_its_bound_methods(self):
        tracer = TxTracer()
        on_commit, on_abort, on_tx_read, filter_validation = \
            observer_seams(tracer)
        assert on_commit == tracer.on_commit
        assert on_abort == tracer.on_abort
        assert on_tx_read is None and filter_validation is None

    def test_observe_appends_and_fans_out_in_slot_order(self):
        log = []
        first, second = _Recorder("first", log), _Recorder("second", log)
        _device, runtime, _data, _ = make_stm_device("hv-sorting")
        runtime.tracer = first
        runtime.observe(second)
        assert runtime.tracer == (first, second)
        on_commit, _, on_tx_read, filter_validation = observer_seams(
            runtime.tracer)
        on_commit(None, 1)
        on_tx_read(None, 0)
        assert filter_validation(None, "read", False) is False
        assert log == [("first", "commit"), ("second", "commit"),
                       ("first", "read"), ("second", "read"),
                       ("first", "filter"), ("second", "filter")]

    def test_filter_validation_chains_verdicts(self):
        class Liar:
            def filter_validation(self, tx, stage, verdict):
                return True

        log = []
        after = _Recorder("after", log)
        seams = observer_seams((Liar(), after))
        assert seams[3](None, "commit", False) is True
        assert log == [("after", "filter")]
        # the liar implements no other seam: the recorder's is used bare
        assert seams[0] == after.on_commit

    def test_tracer_and_sanitizer_share_the_slot(self):
        """``runtime.tracer = x`` then ``sanitizer.bind(runtime)``: both
        observers see every commit and abort, tracer first."""
        from repro.faults.sanitizer import StmSanitizer

        device, runtime, data, _ = make_stm_device("hv-sorting", data_size=4)
        tracer = TxTracer()
        runtime.tracer = tracer
        sanitizer = StmSanitizer().bind(runtime)
        assert runtime.tracer == (tracer, sanitizer)
        device.launch(counter_kernel(data, 3), 1, 8, attach=runtime.attach)
        assert len(tracer.commits()) == runtime.stats["commits"]
        assert len(tracer.aborts()) == runtime.stats["aborts"]
        assert sanitizer._total_commits == runtime.stats["commits"]
        assert sanitizer.ok, sanitizer.report()
