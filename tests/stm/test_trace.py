"""The runtime's observer slot, and the transaction events its telemetry
session puts on the timeline."""

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.stm import StmConfig, make_runtime
from repro.stm.trace import observer_seams
from repro.telemetry import Telemetry
from tests.stm.helpers import counter_kernel, make_stm_device


def traced_run(variant="hv-sorting"):
    """A contended counter run with a timeline session in the observer
    slot; returns the runtime and the run's ``tx`` slices."""
    tel = Telemetry(timeline=True)
    device = Device(small_config(warp_size=4, num_sms=2), telemetry=tel)
    data = device.mem.alloc(4, "data", fill=100)
    runtime = make_runtime(variant, device, StmConfig(num_locks=16,
                                                      shared_data_size=4))
    runtime.tracer = tel
    device.launch(counter_kernel(data, 3), 1, 8, attach=runtime.attach)
    return runtime, [e for e in tel.timeline.events() if e.get("cat") == "tx"]


def _outcome(slices, outcome):
    return [e for e in slices if e["args"]["outcome"] == outcome]


class TestTracer:
    def test_commit_events_match_stats(self):
        runtime, slices = traced_run()
        assert len(_outcome(slices, "commit")) == runtime.stats["commits"]
        assert len(_outcome(slices, "abort")) == runtime.stats["aborts"]
        assert runtime.stats["aborts"] > 0

    def test_abort_reason_histogram(self):
        runtime, slices = traced_run()
        histogram = {}
        for event in _outcome(slices, "abort"):
            reason = event["args"]["reason"]
            histogram[reason] = histogram.get(reason, 0) + 1
        assert sum(histogram.values()) == runtime.stats["aborts"]
        for reason, count in histogram.items():
            assert runtime.stats["aborts.%s" % reason] == count

    def test_events_are_ordered(self):
        """Each thread's attempts follow one another on its track."""
        _runtime, slices = traced_run()
        per_thread = {}
        for event in slices:
            per_thread.setdefault(event["tid"], []).append(event)
        for attempts in per_thread.values():
            for before, after in zip(attempts, attempts[1:]):
                assert before["ts"] + before["dur"] <= after["ts"]

    def test_commit_events_carry_versions(self):
        _runtime, slices = traced_run()
        commits = _outcome(slices, "commit")
        assert commits
        assert all(e["args"]["version"] is not None for e in commits)


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


class _Counter:
    """A stub observer implementing the commit and abort seams only."""

    def __init__(self):
        self.commits = self.aborts = 0

    def on_commit(self, tx, version):
        self.commits += 1

    def on_abort(self, tx, reason):
        self.aborts += 1


class TestObserverSlot:
    def test_empty_slot_resolves_no_seams(self):
        assert observer_seams(None) == (None, None, None, None)

    def test_one_observer_seams_are_its_bound_methods(self):
        counter = _Counter()
        on_commit, on_abort, on_tx_read, filter_validation = \
            observer_seams(counter)
        assert on_commit == counter.on_commit
        assert on_abort == counter.on_abort
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
        observers see every commit and abort, ``x`` first."""
        from repro.faults.sanitizer import StmSanitizer

        device, runtime, data, _ = make_stm_device("hv-sorting", data_size=4)
        counter = _Counter()
        runtime.tracer = counter
        sanitizer = StmSanitizer().bind(runtime)
        assert runtime.tracer == (counter, sanitizer)
        device.launch(counter_kernel(data, 3), 1, 8, attach=runtime.attach)
        assert counter.commits == runtime.stats["commits"]
        assert counter.aborts == runtime.stats["aborts"]
        assert sanitizer._total_commits == runtime.stats["commits"]
        assert sanitizer.ok, sanitizer.report()
