"""Schedule record & replay.

Any launch can capture its issue trace — one ``[sm, warp_id, steps]``
entry per scheduling decision — into a :class:`ScheduleTrace`.  The trace
serializes to JSON, so a failing interleaving found by the fuzzer is
reproducible from the artifact alone: feed it back through a
:class:`ReplayPolicy` and the device re-executes the identical schedule,
producing identical cycles, steps and final memory (the replay-determinism
property pinned in ``tests/sched/test_trace_replay.py``).

Replay is also robust to *edited* traces, which is what the delta-debugging
shrinker (:mod:`repro.sched.fuzz`) relies on: decisions naming a warp that
is not currently resident are skipped, and an exhausted trace falls back to
round-robin issue, so any subsequence of a recorded trace is itself a
valid, deterministic schedule.
"""

import json

from repro.sched.policy import SchedulingPolicy


class ScheduleTrace:
    """A recorded issue trace: the complete schedule of one launch.

    ``decisions`` is a list of ``[sm_index, warp_id, steps]`` triples in
    global issue order.  ``meta`` carries identifying context (kernel
    name, policy spec, geometry, resulting cycles/steps) filled in by
    :meth:`repro.gpu.Device.launch` after the run.
    """

    VERSION = 1

    __slots__ = ("policy", "decisions", "meta")

    def __init__(self, policy=None, decisions=None, meta=None):
        self.policy = policy
        self.decisions = [list(d) for d in decisions] if decisions else []
        self.meta = dict(meta) if meta else {}

    def record(self, sm_index, warp_id, steps):
        """Append one scheduling decision (called by the issue loop)."""
        self.decisions.append([sm_index, warp_id, steps])

    def __len__(self):
        return len(self.decisions)

    def __eq__(self, other):
        return (
            isinstance(other, ScheduleTrace)
            and self.decisions == other.decisions
            and self.policy == other.policy
        )

    def total_steps(self):
        """Warp steps the recorded schedule issues in total."""
        return sum(steps for _sm, _warp, steps in self.decisions)

    def replay_policy(self):
        """A policy that re-executes this trace deterministically."""
        return ReplayPolicy(self.decisions)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self):
        return {
            "version": self.VERSION,
            "type": "replay",
            "policy": self.policy,
            "meta": dict(self.meta),
            "decisions": [list(d) for d in self.decisions],
        }

    def to_json(self, path=None, indent=None):
        """Serialize; write to ``path`` when given, else return the string.

        File writes are atomic (temp file + ``os.replace``) so an
        interrupted dump cannot leave a truncated replay artifact.
        """
        payload = json.dumps(self.as_dict(), indent=indent, sort_keys=True)
        if path is None:
            return payload
        from repro.common.fsio import atomic_write_text

        atomic_write_text(path, payload + "\n")
        return payload

    @classmethod
    def from_dict(cls, data):
        version = data.get("version", cls.VERSION)
        if version != cls.VERSION:
            raise ValueError(
                "unsupported schedule trace version %r (supported: %d)"
                % (version, cls.VERSION)
            )
        return cls(
            policy=data.get("policy"),
            decisions=data.get("decisions", []),
            meta=data.get("meta"),
        )

    @classmethod
    def from_json(cls, source):
        """Load from a JSON string or a file path."""
        if "\n" not in source and not source.lstrip().startswith("{"):
            with open(source) as handle:
                source = handle.read()
        return cls.from_dict(json.loads(source))


class ReplayPolicy(SchedulingPolicy):
    """Re-issue a recorded (or shrunk) decision list deterministically.

    Each SM consumes its own sub-stream of the recorded decisions in
    order.  A decision naming a warp that is not resident on that SM —
    possible only when the trace was edited, e.g. by the shrinker — is
    skipped; once an SM's stream is exhausted, issue falls back to plain
    round robin so the kernel always runs to completion (or to the
    watchdog) under *any* subsequence of a valid trace.
    """

    name = "replay"

    def __init__(self, decisions):
        self.decisions = [list(d) for d in decisions]
        self._streams = {}
        self._pending_quota = 1

    def spec(self):
        return {"type": "replay", "decisions": [list(d) for d in self.decisions]}

    def reset(self, config):
        super().reset(config)
        streams = {}
        for sm_index, warp_id, steps in self.decisions:
            streams.setdefault(sm_index, []).append((warp_id, steps))
        # reversed so consumption pops from the end (O(1))
        self._streams = {sm: list(reversed(seq)) for sm, seq in streams.items()}

    def select(self, sm):
        stream = self._streams.get(sm.index)
        warps = sm.resident_warps
        while stream:
            warp_id, steps = stream[-1]
            for index, warp in enumerate(warps):
                if warp.warp_id == warp_id:
                    stream.pop()
                    self._pending_quota = steps
                    return index
            # stale decision (warp already retired in this edited schedule)
            stream.pop()
        # trace exhausted: deterministic round-robin fallback
        self._pending_quota = self._steps_per_turn
        index = sm.next_warp
        return index if index < len(warps) else 0

    def quota(self, sm, warp):
        return max(1, self._pending_quota)

    def issued(self, sm, index, retired):
        sm.next_warp = index if retired else index + 1
