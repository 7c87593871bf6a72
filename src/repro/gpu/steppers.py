"""Lane steppers: poll loops that run inside the warp, not the generator.

A kernel generator normally ``yield``s ``None`` at every warp-step
boundary.  It may instead yield a *stepper*: from the next step on,
:meth:`repro.gpu.warp.Warp.step` calls ``stepper.step()`` in that lane's
turn instead of resuming the generator, until the stepper hands the lane
back.  Each ``step()`` performs exactly the one globally-visible operation
the equivalent plain loop iteration performed — same record, same lane
order, same memory interleaving — so cycles, steps, ``mem_txns``, phases
and counters are bit-identical to the plain loop; what is saved is the
generator resumption (4-5 frames deep through ``yield from`` on the STM
runtimes) that a failed poll pays to learn nothing.

Call-site form — one stepper object per lane, reused across episodes::

    poller = PollL2(tc)                          # once per lane
    ...
    yield poller.arm(addr, 1, Phase.LOCKS)       # spin until bit 0 clears
    word, waits = poller.word, poller.waits

``arm`` issues the loop's first probe as an ordinary ``tc`` call and
returns ``None`` when that probe already ends the loop (an ordinary step
boundary), else the stepper itself, which the warp then *polls*.  A
polling lane is still stepping, not parked: a word that never clears
stays a livelock at the exact step count of the plain loop.

Two modes, one call-site form.  On a context without instrument probes
(``not tc.probes``: a plain :class:`~repro.gpu.thread.ThreadCtx`) a
stepper is **fast**: the probe is recorded inline, its latency charge is
deferred and settled in one multiplication at hand-back (nothing can
observe a polling lane's phase map in between — it runs no code, and
``Warp.settle_polling()``, which the watchdog snapshot calls, settles it
first), and the lane
counts toward the warp's quiet-step test (see ``Warp.step``).  On a
:class:`~repro.gpu.thread.ProbedThreadCtx` (timeline, sanitizer, fault
injector, multi-device link) it is **exact**: every probe is a real
``tc.gread_l2`` / ``tc.atomic_cas`` call, charged immediately and seen by
every probe, and the lane never counts as quiet.

Writing a new stepper: subclass :class:`LaneStepper`; perform at most one
globally-visible operation per ``step()``; call ``_hand_back()`` when the
loop ends (and call what it returns if the loop's exit test comes before
its operation, so the generator runs in the same step); and keep the
warp's ``polling`` count (and invalidate its ``watch`` cache) in step with
``_polls``: true only while the next ``step()`` is a pure L2 probe that
fails as long as ``word & mask`` is non-zero.
"""

from repro.gpu.events import OpKind

_L2_READ = OpKind.L2_READ


def _open_l2_group(warp, addr, phase):
    """Record the first L2 probe of an issue group in this step (later
    joiners only bump ``step_nops``: the flat L2 fold never reads their
    addresses).  The tail of :meth:`ThreadCtx.gread_l2`'s record path."""
    groups = warp.step_groups
    tag = (_L2_READ, phase)
    bucket = groups.get(tag)
    if bucket is None:
        groups[tag] = bucket = [addr]
    else:
        bucket.append(addr)
    warp.step_kind = _L2_READ
    warp.step_phase = phase
    warp.step_cur = bucket


class LaneStepper:
    """Lane binding, probe target and deferred-charge bookkeeping."""

    __slots__ = ("tc", "warp", "lane", "fast", "addr", "mask", "phase",
                 "probes", "_words", "_own", "_quiet_base", "_polls")

    def __init__(self, tc):
        # nothing else is touched until a first probe fails: runtimes make
        # one stepper per lane up front, and most lanes never spin
        self.tc = tc
        self.lane = None

    def _arm(self, addr, mask, phase):
        if self.lane is None:
            tc = self.tc
            self.warp = tc.warp
            self._words = tc._words
            # fast steppers count toward the warp's quiet-step test while
            # their next step is a pure probe (TtasAcquire: except when it
            # is the CAS)
            self.fast = self._polls = not tc.probes
            self._own = 0
        self.addr = addr
        self.mask = mask
        self.phase = phase
        # probes issued by step() or stood in for by quiet steps (arm's
        # own first probe is not counted); the _own of them are fast ones
        # whose latency is not charged yet (zero again after every settle)
        self.probes = 0

    def bind(self, lane):
        """The lane's generator yielded this stepper: drive the lane
        through :meth:`step` from the next warp step on."""
        self.lane = lane
        lane.stepper = self
        # a fresh bound method per episode: one cached on the stepper
        # would be a reference cycle outliving the launch
        lane.resume = self.step
        warp = self.warp
        self._quiet_base = warp.quiet_steps
        if self._polls:
            warp.polling += 1
            warp.watch = None

    def _hand_back(self):
        """The loop ended: settle, and give the lane back to its
        generator.  Returns the generator's resume callable."""
        self.settle()
        lane = self.lane
        lane.stepper = None
        lane.resume = resume = lane.gen_next
        return resume

    def settle(self):
        """Charge the probes whose latency is still deferred: this
        stepper's fast probes plus the warp's quiet steps since the last
        settle.  (Exact mode defers nothing, and a warp with an exact lane
        is never quiet, so there this is a no-op.)"""
        quiet = self.warp.quiet_steps
        count = self._own + quiet - self._quiet_base
        if count:
            self._own = 0
            self._quiet_base = quiet
            self.probes += count
            # ThreadCtx.charge inlined; arm's probe already opened the phase
            tc = self.tc
            cycles = count * tc._l2_read_latency
            tc._phase_map[self.phase] += cycles
            tc.cycles_total += cycles


class PollL2(LaneStepper):
    """``while True: word = gread_l2(addr); yield; if not word & mask: break``

    After the ``yield``, ``word`` is the probe that ended the loop and
    ``waits`` the number of probes that failed before it.
    """

    __slots__ = ("word", "waits")

    def arm(self, addr, mask, phase):
        word = self.tc.gread_l2(addr, phase)
        if not word & mask:
            self.word = word
            self.waits = 0
            return None
        self._arm(addr, mask, phase)
        return self

    def step(self):
        if self.fast:
            warp = self.warp
            warp.step_nops += 1
            phase = self.phase
            if _L2_READ is not warp.step_kind or phase is not warp.step_phase:
                _open_l2_group(warp, self.addr, phase)
            self._own += 1
            word = self._words[self.addr]
            if word & self.mask:
                return None
            warp.polling -= 1
            warp.watch = None
        else:
            word = self.tc.gread_l2(self.addr, self.phase)
            self.probes += 1
            if word & self.mask:
                return None
        self._hand_back()
        self.word = word
        # arm's failed probe stands in for the one that just passed
        self.waits = self.probes
        return None


class TtasAcquire(LaneStepper):
    """Test-and-test-and-set acquisition of a 0/1 spinlock: poll until the
    word reads 0, CAS 0->1 in the next step, back to polling on a lost
    race.  The lane stays with the stepper across failed attempts.

    After the ``yield`` the lock is held; ``spins`` counts the probes that
    saw it taken and ``failures`` the lost CAS races.
    """

    __slots__ = ("spins", "failures", "_cas_next")

    def arm(self, addr, phase):
        self._arm(addr, -1, phase)
        self.failures = 0
        self._cas_next = free = not self.tc.gread_l2(addr, phase)
        self._polls = self.fast and not free
        return self

    def step(self):
        if self._cas_next:
            if self.tc.atomic_cas(self.addr, 0, 1, self.phase) == 0:
                self._hand_back()
                # of probes + 1 (arm's) probes, failures + 1 saw the lock free
                self.spins = self.probes - self.failures
                return None
            self.failures += 1
            self._cas_next = False
            if self.fast:
                warp = self.warp
                warp.polling += 1
                warp.watch = None
            return None
        if self.fast:
            warp = self.warp
            warp.step_nops += 1
            phase = self.phase
            if _L2_READ is not warp.step_kind or phase is not warp.step_phase:
                _open_l2_group(warp, self.addr, phase)
            self._own += 1
            if self._words[self.addr]:
                return None
            warp.polling -= 1
            warp.watch = None
        else:
            self.probes += 1
            if self.tc.gread_l2(self.addr, self.phase):
                return None
        self._cas_next = True
        return None


class PollUntil(LaneStepper):
    """``while cell[0] != token: gread_l2(addr); yield`` for a host-side
    ``cell`` (any mutable sequence: a turn queue, a flag list).  The probe
    models the traffic of the wait; its value is not what ends it.  The
    cell is tested before each probe, and when it holds the token the
    generator resumes *in the same step*, as the plain loop falls through
    to the code after it.  Arm it only after finding the cell without the
    token.  Never counts as quiet: the warp would have to test every
    lane's token, and at one warp per block (every geometry in the tree)
    the lane whose turn it is shares the warp with its waiters anyway.
    """

    __slots__ = ("cell", "token")

    def arm(self, cell, token, addr, phase):
        self.tc.gread_l2(addr, phase)
        self._arm(addr, 0, phase)
        self._polls = False
        self.cell = cell
        self.token = token
        return self

    def step(self):
        if self.cell[0] == self.token:
            # whatever the generator does — yield None or a stepper, or
            # finish — flows through the warp's lane loop unchanged
            return self._hand_back()()
        if self.fast:
            warp = self.warp
            warp.step_nops += 1
            phase = self.phase
            if _L2_READ is not warp.step_kind or phase is not warp.step_phase:
                _open_l2_group(warp, self.addr, phase)
            self._own += 1
        else:
            self.tc.gread_l2(self.addr, self.phase)
        return None
