"""Unified telemetry layer: metric registry, simulated-time timelines,
cross-process aggregation.

See ``docs/observability.md`` for the metric naming scheme, the timeline
format, and how to open traces in Perfetto.  The layer is strictly opt-in:
with no :class:`Telemetry` session attached, the simulator's hot paths are
untouched (``tests/test_golden_cycles.py`` pins bit-identical cycles).
The timeline is recorded by one probe per thread
(:meth:`Telemetry.thread_probe`, a :class:`~repro.gpu.thread
.ProbedThreadCtx` probe), so it combines with the sanitizer, fault
injection and multi-device runs.

Quick start::

    from repro.telemetry import Telemetry

    tel = Telemetry(timeline=True)
    run = run_workload(workload, "optimized", gpu_config, telemetry=tel)
    tel.write_timeline("run.trace.json")   # open in chrome://tracing
    tel.write_metrics("metrics.json")
"""

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    metric_name,
)
from repro.telemetry.session import Telemetry
from repro.telemetry.timeline import TimelineRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Telemetry",
    "TimelineRecorder",
    "metric_name",
]
