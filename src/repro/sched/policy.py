"""Pluggable warp-scheduling policies.

The device scheduler (:mod:`repro.gpu.scheduler`) makes one decision per
SM per sweep: *which resident warp to issue next, and for how many
consecutive steps*.  That decision is exactly what determines the
interleaving of transactional operations across warps — and therefore
which of the paper's section 2.2 failure modes (livelock, opacity
violations under adversarial commit orderings) a given run can exhibit.

A :class:`SchedulingPolicy` encapsulates that decision so the simulator
can execute many different interleavings of the *same* kernel:

* :class:`RoundRobin` — the default; reproduces the device's historical
  fixed round-robin issue bit-identically (pinned by
  ``tests/test_golden_cycles.py``);
* :class:`SeededRandom` — uniform random warp choice with a randomized
  per-turn step quota, fully determined by its seed;
* :class:`Adversarial` — preferentially starves warps whose lanes hold
  version locks (i.e. delays committers mid-commit), maximizing the
  window in which other warps observe locked or stale stripes.

Policies are addressed by compact *specs* — strings like ``"rr"``,
``"random:7"``, ``"adversarial:3"`` — so they travel
through :class:`~repro.harness.parallel.JobSpec` GPU-config overrides and
JSON artifacts unchanged.  :func:`make_policy` resolves a spec (or a
policy instance, or a recorded-trace dict) into a policy object.

This module is dependency-light on purpose: the GPU scheduler imports it,
so it must not import anything from :mod:`repro.gpu`.
"""

from repro.common.rng import Xorshift32


class SchedulingPolicy:
    """Warp-selection strategy driven by the device scheduler.

    The scheduler calls, per SM per sweep::

        index = policy.select(sm)        # index into sm.resident_warps
        quota = policy.quota(sm, warp)   # consecutive steps to issue
        ...issues up to ``quota`` steps...
        policy.issued(sm, index, retired)

    ``sm`` is the scheduler's internal per-SM state; policies may read
    ``sm.index``, ``sm.resident_warps``, ``sm.next_warp`` and
    ``sm.cycles`` and may use ``sm.next_warp`` as their own cursor.
    :meth:`reset` is called once at the start of every launch.
    """

    name = "abstract"

    def spec(self):
        """Compact round-trippable description (``make_policy(p.spec())``)."""
        return self.name

    def reset(self, config):
        """Prepare for a new launch; default keeps cross-launch state."""
        self._steps_per_turn = config.warp_steps_per_turn

    def select(self, sm):
        """Return the index of the resident warp to issue next."""
        raise NotImplementedError

    def quota(self, sm, warp):
        """Consecutive steps to issue the selected warp for (>= 1)."""
        return self._steps_per_turn

    def issued(self, sm, index, retired):
        """Bookkeeping after a turn; ``retired`` means the warp was popped."""


class RoundRobin(SchedulingPolicy):
    """Fine-grained round robin — the device's historical default.

    Reproduces the pre-policy scheduler decision-for-decision: the per-SM
    cursor lives in ``sm.next_warp`` exactly as before.  The device's issue
    loop runs this policy's selection, quota and cursor update inline when
    the launch's policy is exactly this class (a subclass goes through the
    method calls); ``tests/sched/test_policy.py`` pins that both branches
    issue the same schedule.
    """

    name = "rr"

    def select(self, sm):
        index = sm.next_warp
        return index if index < len(sm.resident_warps) else 0

    def issued(self, sm, index, retired):
        sm.next_warp = index if retired else index + 1


class SeededRandom(SchedulingPolicy):
    """Uniform random warp choice, deterministic in its seed.

    Every selection and per-turn quota comes from one xorshift stream, so
    a (seed, kernel, geometry) triple always yields the same schedule —
    the property the fuzzer's reproducibility rests on.  ``max_turn``
    bounds the randomized consecutive-step quota (1 keeps strict
    round-robin granularity; larger values also explore coarse
    interleavings).
    """

    name = "random"

    def __init__(self, seed=0, max_turn=4):
        if max_turn < 1:
            raise ValueError("max_turn must be >= 1")
        self.seed = seed
        self.max_turn = max_turn
        self._rng = Xorshift32(seed)

    def spec(self):
        return "random:%d:%d" % (self.seed, self.max_turn)

    def select(self, sm):
        return self._rng.randrange(len(sm.resident_warps))

    def quota(self, sm, warp):
        if self.max_turn == 1:
            return 1
        return 1 + self._rng.randrange(self.max_turn)


class Adversarial(SchedulingPolicy):
    """Starve lock holders: schedule around committing transactions.

    Warps whose lanes currently hold version locks (a non-empty ``_held``
    map on the attached STM thread state, i.e. mid-commit between lock
    acquisition and release) are issued *last*: the policy selects among
    the warps holding the fewest locks, so committers stay parked while
    their victims spin on locked stripes and accumulate stale snapshots.
    This is the schedule shape that widens every lock-held window the
    runtime has — the adversary the paper's bounded-spin arguments (locks
    are only held by committing transactions, which finish) must survive.

    A small seeded random escape (one selection in eight) keeps the
    policy from locking onto a single pathological cycle forever, which
    also preserves the watchdog's livelock detection value.
    """

    name = "adversarial"

    def __init__(self, seed=0):
        self.seed = seed
        self._rng = Xorshift32(seed ^ 0xAD5E_11A1)

    def spec(self):
        return "adversarial:%d" % self.seed

    @staticmethod
    def _locks_held(warp):
        held = 0
        for lane in warp.lanes:
            if lane.done:
                continue
            stm = lane.tc.stm
            if stm is None:
                continue
            locks = getattr(stm, "_held", None)
            if locks:
                held += len(locks)
        return held

    def select(self, sm):
        warps = sm.resident_warps
        count = len(warps)
        if count == 1:
            return 0
        if self._rng.randrange(8) == 0:
            return self._rng.randrange(count)
        best = []
        best_score = None
        for index, warp in enumerate(warps):
            score = self._locks_held(warp)
            if best_score is None or score < best_score:
                best_score = score
                best = [index]
            elif score == best_score:
                best.append(index)
        if len(best) == 1:
            return best[0]
        return best[self._rng.randrange(len(best))]

    def quota(self, sm, warp):
        return 1


#: spec keyword -> policy class, for parsing and docs
POLICIES = {
    RoundRobin.name: RoundRobin,
    "round-robin": RoundRobin,
    SeededRandom.name: SeededRandom,
    Adversarial.name: Adversarial,
}


def make_policy(spec):
    """Resolve ``spec`` into a :class:`SchedulingPolicy` instance.

    Accepts a policy instance (returned unchanged), ``None`` (round
    robin), a spec string (``"rr"``, ``"random:SEED[:MAXTURN]"``,
    ``"adversarial[:SEED]"``), or a recorded-trace
    dict (``{"type": "replay", "decisions": [...]}``) which yields a
    :class:`~repro.sched.trace.ReplayPolicy`.
    """
    if spec is None:
        return RoundRobin()
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, dict):
        if spec.get("type") == "replay":
            from repro.sched.trace import ReplayPolicy

            return ReplayPolicy(spec["decisions"])
        raise ValueError("policy dict must have type='replay', got %r" % spec)
    if not isinstance(spec, str):
        raise ValueError("cannot build a scheduling policy from %r" % (spec,))
    head, _, tail = spec.partition(":")
    args = [part for part in tail.split(":") if part] if tail else []
    try:
        numbers = [int(part) for part in args]
    except ValueError:
        raise ValueError("non-integer parameter in policy spec %r" % spec) from None
    cls = POLICIES.get(head)
    if cls is None:
        raise ValueError(
            "unknown scheduling policy %r; expected one of %s"
            % (head, ", ".join(sorted(POLICIES)))
        )
    if cls is RoundRobin:
        if numbers:
            raise ValueError("round robin takes no parameters, got %r" % spec)
        return RoundRobin()
    if len(numbers) > 2 or (cls is not SeededRandom and len(numbers) > 1):
        raise ValueError("too many parameters in policy spec %r" % spec)
    return cls(*numbers)
