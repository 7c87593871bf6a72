"""Telemetry + runner integration: a full workload run's transaction events."""

from repro.gpu import Device
from repro.harness.configs import test_workload_params as tiny_params, unit_gpu
from repro.stm import StmConfig, make_runtime
from repro.telemetry import Telemetry
from repro.workloads import make_workload


def traced_workload_run(name, variant="hv-sorting"):
    """Run workload ``name`` under a timeline session in the runtime's
    observer slot; returns the runtime, the session's histograms and the
    run's ``tx`` slices."""
    workload = make_workload(name, **tiny_params(name))
    tel = Telemetry(timeline=True)
    device = Device(unit_gpu(), telemetry=tel)
    workload.setup(device)
    runtime = make_runtime(
        variant,
        device,
        StmConfig(num_locks=64, shared_data_size=workload.shared_data_size),
    )
    runtime.tracer = tel
    for spec in workload.kernels():
        device.launch(
            spec.kernel, spec.grid, spec.block, args=spec.args, attach=runtime.attach
        )
    workload.verify(device, runtime)
    histograms = tel.registry.as_dict()["histograms"]
    slices = [e for e in tel.timeline.events() if e.get("cat") == "tx"]
    return runtime, histograms, slices


def _outcome(slices, outcome):
    return [e for e in slices if e["args"]["outcome"] == outcome]


class TestTraceIntegration:
    def test_km_trace_shows_conflict_hotspot(self):
        runtime, histograms, slices = traced_workload_run("km")
        commits = runtime.stats["commits"]
        assert histograms["stm.tx.read_set"]["count"] == commits
        assert len(_outcome(slices, "commit")) == commits
        # KM is the conflict-heavy workload: aborts appear in the trace
        assert _outcome(slices, "abort")

    def test_ra_trace_footprints_match_workload(self):
        runtime, histograms, _slices = traced_workload_run("ra")
        params = tiny_params("ra")
        reads, writes = (histograms["stm.tx.read_set"],
                         histograms["stm.tx.write_set"])
        assert reads["count"] == writes["count"] == runtime.stats["commits"]
        # each RA action reads 2 cells and writes 2 cells
        assert reads["max"] <= 2 * params["actions_per_tx"]
        assert 1 <= writes["min"] <= writes["max"] <= 2 * params["actions_per_tx"]

    def test_cgl_trace_has_no_aborts(self):
        _runtime, _histograms, slices = traced_workload_run("ra", "cgl")
        assert _outcome(slices, "abort") == []
        assert _outcome(slices, "commit")
