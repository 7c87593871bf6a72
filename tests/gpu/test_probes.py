"""ProbedThreadCtx: every operation reaches every probe by construction,
and the simulator core stays independent of the instruments."""

import ast
import inspect
import os

import pytest

import repro.gpu
from repro.gpu import Device
from repro.gpu.config import small_config
from repro.gpu.events import Phase
from repro.gpu.thread import ProbedThreadCtx, ThreadCtx

#: an argument value for every parameter name a ThreadCtx op takes
ARGS = {"value": 3, "expected": 0, "new": 5, "cycles": 7, "count": 2,
        "offset": 1, "phase": Phase.COMMIT}


def public_ops():
    """ThreadCtx's public operations (generator coordination excluded):
    a new op shows up here without anyone listing it."""
    return sorted(
        name for name, member in vars(ThreadCtx).items()
        if callable(member) and not name.startswith("_")
        and not inspect.isgeneratorfunction(member)
    )


def is_global(name):
    params = list(inspect.signature(getattr(ThreadCtx, name)).parameters)
    return params[1:2] == ["addr"]


class Recorder:
    """Implements every seam; records what it saw, changes nothing."""

    def __init__(self):
        self.charged = 0
        self.before_calls = []
        self.seen = []

    def charge(self, phase, start, cycles):
        self.charged += cycles

    def before(self, tc, kind, addr, phase):
        self.before_calls.append(addr)

    def read(self, tc, addr, value):
        self.seen.append("read")
        return value

    def write(self, tc, addr, phase, value, old):
        self.seen.append("write")
        return value

    def atomic(self, tc, op, addr, phase, a, b):
        self.seen.append(op)

    def event(self, tc, name, phase):
        self.seen.append(name)


class ProbeDevice(Device):
    def __init__(self, probes):
        super().__init__(small_config(warp_size=1))
        self.probes = probes

    def _probe_makers(self):
        return [lambda tid, block, probe=probe: probe for probe in self.probes]


@pytest.mark.parametrize("count", [1, 2])
def test_every_op_reaches_every_probe(count):
    recorders = [Recorder() for _ in range(count)]
    dev = ProbeDevice(recorders)
    ops = public_ops()
    data = dev.mem.alloc(len(ops), "data")
    contexts = []

    def kernel(tc):
        contexts.append(tc)
        for index, name in enumerate(ops):
            method = getattr(tc, name)
            kwargs = {param: (data + index if param == "addr" else ARGS[param])
                      for param in inspect.signature(method).parameters}
            method(**kwargs)
            yield

    result = dev.launch(kernel, 1, 1, smem_words=4)
    (tc,) = contexts
    assert isinstance(tc, ProbedThreadCtx) and tc.probes == tuple(recorders)
    expected_before = [data + i for i, name in enumerate(ops) if is_global(name)]
    assert len(expected_before) >= 8
    for recorder in recorders:
        assert recorder.charged == tc.cycles_total == result.phases.total()
        assert recorder.before_calls == expected_before
        assert {"read", "write", "cas", "or", "add", "sub", "exch", "fence",
                "begin", "commit", "abort"} <= set(recorder.seen)


def test_bare_launch_has_no_probes():
    contexts = []

    def kernel(tc):
        contexts.append(tc)
        yield

    Device(small_config(warp_size=1)).launch(kernel, 1, 1)
    assert not isinstance(contexts[0], ProbedThreadCtx)
    assert contexts[0].probes == ()


def test_gpu_package_imports_no_instrument():
    """The instruments plug into the core as probes; the core never
    reaches for them."""
    root = os.path.dirname(repro.gpu.__file__)
    for filename in sorted(os.listdir(root)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(root, filename)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not name.startswith(("repro.telemetry", "repro.faults")), (
                    filename, name)
