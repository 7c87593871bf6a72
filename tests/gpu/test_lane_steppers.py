"""Lane steppers change how a poll loop is executed, never what it does.

Three layers of evidence, all "exactly equal":

* hand-written kernels run once with each spin site as the plain
  ``while ...: probe; yield`` loop and once with the stepper that replaces
  it — a writer lane in the *middle* of a warp changes the watched word
  mid-step, so pollers before and after it in lane order must observe it
  one step apart, under round-robin and a seeded-random warp order, with
  lanes that retire and lanes that arm a stepper in the step they wake;
* whole STM runs on a plain context (fast steppers, quiet steps) against
  the same run with an armed-empty fault plan (instrumented context, so
  exact steppers): identical digests and identical spin counters;
* a word that never clears is still a livelock at the plain loop's step
  count, whether or not the spinning warps went quiet, and lane cycles
  read mid-spin after ``settle_polling()`` show the deferred charges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.gpu import Device, GpuConfig, LivelockError, Phase
from repro.gpu.config import small_config
from repro.gpu.errors import GpuError
from repro.gpu.steppers import PollL2, PollUntil, TtasAcquire
from repro.harness.runner import run_workload
from repro.workloads import make_workload

POLICIES = (None, "random:3")


# ----------------------------------------------------------------------
# The two forms of each spin site
# ----------------------------------------------------------------------
class Plain:
    """The loops the steppers replace, verbatim."""

    def __init__(self, tc):
        self.tc = tc

    def poll(self, addr, mask, phase):
        waits = 0
        while True:
            word = self.tc.gread_l2(addr, phase)
            yield
            if not word & mask:
                return word, waits
            waits += 1

    def acquire(self, addr, phase):
        tc = self.tc
        spins = failures = 0
        while True:
            if tc.gread_l2(addr, phase):
                yield
                spins += 1
                continue
            yield
            observed = tc.atomic_cas(addr, 0, 1, phase)
            yield
            if observed == 0:
                return spins, failures
            failures += 1

    def until(self, cell, token, addr, phase):
        while cell[0] != token:
            self.tc.gread_l2(addr, phase)
            yield


class Stepped:
    """The same sites through the lane steppers."""

    def __init__(self, tc):
        self.l2 = PollL2(tc)
        self.ttas = TtasAcquire(tc)
        self.turn = PollUntil(tc)

    def poll(self, addr, mask, phase):
        yield self.l2.arm(addr, mask, phase)
        return self.l2.word, self.l2.waits

    def acquire(self, addr, phase):
        yield self.ttas.arm(addr, phase)
        return self.ttas.spins, self.ttas.failures

    def until(self, cell, token, addr, phase):
        if cell[0] != token:
            yield self.turn.arm(cell, token, addr, phase)


def run_both(kernel, grid, block, init, policy, config=None):
    """Launch ``kernel(tc, spin, base, log)`` in both forms; return the two
    observation records, which must be equal."""
    records = []
    for form in (Plain, Stepped):
        dev = Device(config or small_config(warp_size=4, num_sms=2))
        base = dev.mem.alloc(len(init))
        for offset, value in enumerate(init):
            dev.mem.write(base + offset, value)
        ctxs = []
        log = []

        def entry(tc, form=form, base=base, log=log):
            yield from kernel(tc, form(tc), base, log)

        result = dev.launch(entry, grid, block, attach=ctxs.append, policy=policy)
        records.append({
            "steps": result.steps,
            "cycles": result.cycles,
            "sm_cycles": result.sm_cycles,
            "mem_txns": result.mem_txns,
            "phases": result.phases.as_dict(),
            "lanes": [(tc.tid, tc.phase_cycles.as_dict(), tc.cycles_total)
                      for tc in ctxs],
            "log": log,
            "mem": dev.mem.snapshot(base, len(init)),
        })
    return records


# ----------------------------------------------------------------------
# (a) hand-written kernels
# ----------------------------------------------------------------------
def flag_kernel(tc, spin, base, log):
    """Block 0 lane 2 is the writer: it clears flag A, then flag B, then
    retires.  Every other lane polls A; once through, even lanes retire
    and odd lanes poll B in another phase; thread 7 polls B from the
    start.  Block 1 holds only pollers, so its warp goes quiet — over two
    words in two phases, then with two live lanes."""
    flag_a, flag_b = base, base + 1
    if tc.tid == 2:
        for _ in range(3):
            tc.work(2)
            yield
        tc.gwrite(flag_a, 4)  # bit 0 clear, other bits set: mask matters
        yield
        for _ in range(4):
            tc.work(1)
            yield
        tc.gwrite(flag_b, 0)
        yield
        return
    if tc.tid != 7:
        word, waits = yield from spin.poll(flag_a, 1, Phase.LOCKS)
        log.append((tc.tid, "a", word, waits, tc.warp.steps))
        if tc.lane_id % 2 == 0:
            return
    word, waits = yield from spin.poll(flag_b, 3, Phase.CONSISTENCY)
    log.append((tc.tid, "b", word, waits, tc.warp.steps))


@pytest.mark.parametrize("policy", POLICIES)
def test_poll_l2_sees_a_mid_warp_write_in_lane_order(policy):
    plain, stepped = run_both(flag_kernel, 2, 4, [1, 3], policy)
    assert stepped == plain
    woke = {tid: step for tid, which, _w, _n, step in plain["log"] if which == "a"}
    # lanes after the writer see the write in the step it happens, lanes
    # before it one step later
    assert woke[3] + 1 == woke[0] == woke[1]
    assert len(plain["log"]) == 6 + 4


def lock_kernel(tc, spin, base, log):
    """Every lane takes a 0/1 spinlock twice; the critical section bumps a
    counter non-atomically, so a lost update shows in memory."""
    lock, counter = base, base + 1
    for _round in range(2):
        spins, failures = yield from spin.acquire(lock, Phase.LOCKS)
        log.append((tc.tid, spins, failures, tc.warp.steps))
        value = tc.gread(counter)
        yield
        tc.gwrite(counter, value + 1)
        yield
        tc.gwrite(lock, 0, Phase.LOCKS)
        yield


@pytest.mark.parametrize("policy", POLICIES)
def test_ttas_acquire_matches_the_plain_loop(policy):
    plain, stepped = run_both(lock_kernel, 3, 8, [0, 0], policy)
    assert stepped == plain
    assert plain["mem"] == [0, 2 * 24]
    assert any(failures for _tid, _spins, failures, _step in plain["log"])
    assert any(spins > 20 for _tid, spins, _failures, _step in plain["log"])


def turn_kernel(tc, spin, base, log):
    """Lanes take turns in a host-side queue whose order is not lane order
    (a later lane sees a hand-over in the same step, an earlier one in the
    next).  Lanes 2 and 0 poll a flag in the very step their turn comes
    up — the stepper that woke them hands straight to another one; lane 3
    clears that flag on its turn, and lane 1 retires in its wake step."""
    flag, slot = base, base + 1
    queue = tc.block.shared.setdefault("turns", [2, 0, 3, 1])
    yield from spin.until(queue, tc.lane_id, slot, Phase.INIT)
    log.append((tc.tid, "turn", tc.warp.steps))
    if tc.lane_id == 3:
        tc.gwrite(flag, 0)
        yield
    queue.pop(0)
    if tc.lane_id in (2, 0):
        word, waits = yield from spin.poll(flag, 1, Phase.CONSISTENCY)
        log.append((tc.tid, "flag", word, waits, tc.warp.steps))


@pytest.mark.parametrize("policy", POLICIES)
def test_poll_until_resumes_the_generator_in_the_same_step(policy):
    plain, stepped = run_both(turn_kernel, 2, 4, [1, 0], policy)
    assert stepped == plain
    turns = [entry[0] % 4 for entry in plain["log"] if entry[0] < 4 and entry[1] == "turn"]
    assert turns == [2, 0, 3, 1]


def test_yielding_anything_else_is_a_protocol_error():
    dev = Device(small_config())

    def kernel(tc):
        yield 1

    with pytest.raises(GpuError, match="yields None or a lane stepper"):
        dev.launch(kernel, 1, 1)


# ----------------------------------------------------------------------
# (b) fast steppers (bare context) == exact steppers (instrumented context)
# ----------------------------------------------------------------------
SPIN_COUNTERS = ("lock_spin_reads", "lock_acquire_failures", "begin_waits",
                 "read_waits_on_lock")


def digest(variant, warp_size, grid, block, txs, fault_plan):
    workload = make_workload("ra", array_size=16, grid=grid, block=block,
                             txs_per_thread=txs, actions_per_tx=2)
    gpu = GpuConfig(warp_size=warp_size, num_sms=2, max_steps=2_000_000,
                    strict_lockstep=True, check_bounds=True)
    run = run_workload(workload, variant, gpu, num_locks=8, fault_plan=fault_plan)
    return {
        "cycles": run.cycles,
        "kernels": [(k.steps, k.cycles, k.mem_txns, k.phases.as_dict())
                    for k in run.kernel_results],
        "stats": run.stats,
    }


@given(
    variant=st.sampled_from(("cgl", "vbv", "hv-sorting", "egpgv")),
    warp_size=st.sampled_from((4, 8)),
    grid=st.integers(min_value=1, max_value=3),
    block=st.sampled_from((4, 8, 16)),
    txs=st.integers(min_value=1, max_value=3),
)
@settings(deadline=None, max_examples=25)
def test_fast_and_exact_steppers_agree(variant, warp_size, grid, block, txs):
    fast = digest(variant, warp_size, grid, block, txs, None)
    exact = digest(variant, warp_size, grid, block, txs, FaultPlan([]))
    assert fast == exact
    for name in SPIN_COUNTERS:
        assert fast["stats"].get(name, 0) == exact["stats"].get(name, 0)


@pytest.mark.parametrize("variant,counter", [
    ("cgl", "lock_spin_reads"),
    ("cgl", "lock_acquire_failures"),
    ("vbv", "begin_waits"),
    ("hv-sorting", "read_waits_on_lock"),
])
def test_the_agreement_is_not_vacuous(variant, counter):
    assert digest(variant, 8, 2, 16, 3, None)["stats"][counter] > 0


# ----------------------------------------------------------------------
# (c) livelock classification and mid-spin snapshots
# ----------------------------------------------------------------------
def stuck_kernel(busy_lane):
    def kernel(tc, spin, base, log):
        if tc.tid == busy_lane:
            while True:
                tc.work(1)
                yield
        yield from spin.poll(base, 1, Phase.LOCKS)

    return kernel


@pytest.mark.parametrize("busy_lane", [None, 1], ids=["quiet", "not-quiet"])
def test_never_cleared_word_is_a_livelock_at_the_same_step(busy_lane):
    trips = []
    for form in (Plain, Stepped):
        dev = Device(small_config(warp_size=4, num_sms=1, max_steps=300))
        base = dev.mem.alloc(1)
        dev.mem.write(base, 1)

        def entry(tc, form=form, base=base):
            yield from stuck_kernel(busy_lane)(tc, form(tc), base, None)

        with pytest.raises(LivelockError) as exc:
            dev.launch(entry, 2, 4)
        trips.append(exc.value)
    plain, stepped = trips
    assert stepped.steps == plain.steps
    assert stepped.snapshot["sms"] == plain.snapshot["sms"]
    for entry in stepped.snapshot["live_warps"]:
        assert entry["waiting"] == {}
    polling = [entry["polling"] for entry in stepped.snapshot["live_warps"]]
    spinners = [0, 2, 3] if busy_lane == 1 else [0, 1, 2, 3]
    assert polling == [{base: spinners}, {base: [0, 1, 2, 3]}]
    assert [entry["polling"] for entry in plain.snapshot["live_warps"]] == [{}, {}]


def observer_kernel(tc, spin, base, log):
    """Warp 1 spins (quiet) while lane 0 of warp 0 photographs it."""
    if tc.tid == 0:
        for _ in range(25):
            tc.work(1)
            yield
        watched = tc.block.warps[1]
        watched.settle_polling()
        log.append((watched.steps, [lane.tc.cycles_total for lane in watched.lanes]))
        tc.gwrite(base, 0)
        yield
        return
    if tc.warp.warp_id == 0:
        return
    yield from spin.poll(base, 1, Phase.LOCKS)


def test_lane_snapshot_mid_spin_shows_settled_cycles():
    config = small_config(warp_size=4, num_sms=1)
    plain, stepped = run_both(observer_kernel, 1, 8, [1], None, config)
    assert stepped == plain
    (steps, cycles), = stepped["log"]
    latency = config.costs.l2_read_latency
    assert steps > 10
    assert cycles == [steps * latency] * 4
