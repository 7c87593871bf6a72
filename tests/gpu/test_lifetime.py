"""A launch frees what it built.

Warps, lanes, thread contexts and the transaction state a runtime attaches
point at one another; ``Device.launch`` dismantles that graph on every
exit path, so reference counting frees a finished launch at once instead
of leaving it as cyclic garbage for a full collection.  Each case runs
with the collector disabled and ``gc.DEBUG_SAVEALL`` set, then collects:
any object of a ``repro`` class the collector finds unreachable was held
only by a reference cycle.
"""

import gc

import pytest

from repro.faults.mutants import MUTANTS, MutantRuntimeFactory
from repro.faults.plan import FaultPlan
from repro.faults.sanitizer import StmSanitizer
from repro.gpu import Device, ProgressError
from repro.gpu.config import small_config
from repro.gpu.thread import ThreadCtx
from repro.harness import configs
from repro.harness.runner import run_workload
from repro.service.server import LedgerService, ServiceConfig
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS
from repro.telemetry.session import Telemetry
from repro.workloads import make_workload


def cyclic_repro_garbage(run):
    """Names of the ``repro`` classes whose instances ``run()`` left
    reachable only through reference cycles."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({
            type(obj).__qualname__ for obj in gc.garbage
            if type(obj).__module__.split(".")[0] == "repro"
        })
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def run_ra(variant="optimized", gpu=None, **kwargs):
    run_workload(
        make_workload("ra", **configs.test_workload_params("ra")), variant,
        gpu or configs.explore_gpu(), "rr", num_locks=16, **kwargs)


def bare_launch(max_steps=8_000_000):
    device = Device(small_config(max_steps=max_steps))
    base = device.mem.alloc(16, "data")

    def kernel(tc):
        for _ in range(4):
            tc.atomic_add(base + tc.tid % 4, 1)
            yield

    device.launch(kernel, 2, 8)


def test_bare_launch():
    assert cyclic_repro_garbage(bare_launch) == []


def test_raised_watchdog_trip():
    def run():
        with pytest.raises(ProgressError):
            bare_launch(max_steps=3)

    assert cyclic_repro_garbage(run) == []


@pytest.mark.parametrize("variant", STM_VARIANTS + EXTENSION_VARIANTS)
def test_each_variant(variant):
    # capture mode: the section 2.2 strawman's livelock is recorded, so
    # its case is a watchdog-tripped capture run
    def run():
        run_ra(variant, gpu=configs.explore_gpu(max_steps=200_000),
               capture=True)

    assert cyclic_repro_garbage(run) == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant(name):
    # a mutant is its runtime's transaction class, so a mutated run is
    # freed like any other
    def run():
        run_ra(MUTANTS[name].variants[0],
               gpu=configs.explore_gpu(max_steps=200_000), capture=True,
               runtime_factory=MutantRuntimeFactory(name))

    assert cyclic_repro_garbage(run) == []


@pytest.mark.parametrize("instrument", [
    lambda: dict(telemetry=Telemetry(timeline=True)),
    lambda: dict(telemetry=Telemetry()),
    lambda: dict(sanitizer=StmSanitizer()),
    lambda: dict(fault_plan=FaultPlan([])),
    lambda: dict(check_oracle=True),
    lambda: dict(gpu=configs.override_gpu(configs.explore_gpu(),
                                          {"devices": 2})),
], ids=["timeline", "registry", "sanitizer", "fault_plan", "oracle",
        "devices2"])
def test_each_instrument(instrument):
    # built inside the measured run: an instrument the test kept would
    # keep whatever it references reachable
    assert cyclic_repro_garbage(lambda: run_ra(**instrument())) == []


def test_watchdog_tripped_capture_run():
    def run():
        run_ra("hv-unsorted-nobackoff",
               gpu=configs.explore_gpu(max_steps=20_000), capture=True)

    assert cyclic_repro_garbage(run) == []


def test_service_keeps_no_thread_context_past_its_batches():
    """The serving loop launches batch after batch on one runtime; none
    of a finished batch's thread contexts stays alive."""
    service = LedgerService(
        "optimized", num_accounts=128, gpu_config=configs.unit_gpu(),
        service_config=ServiceConfig(batch_size=8, num_locks=64))
    source = service.open_loop_source("poisson", 7, 8.0, 20_000)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        outcome = service.run(source, duration_cycles=20_000)
        alive = sum(isinstance(obj, ThreadCtx) for obj in gc.get_objects())
    finally:
        if enabled:
            gc.enable()
    assert outcome.batches >= 20
    assert alive == 0
