"""Statistics containers shared by the simulator, the STM runtimes and the
evaluation harness.

Two small mutable containers cover everything the paper reports:

* :class:`Counters` — named event counts (commits, aborts, memory
  transactions, lock-acquisition failures, ...).
* :class:`PhaseCycles` — cycles attributed to each execution phase of a
  transactionalized kernel; this is the raw material of the paper's Figure 5
  execution-time breakdown.
"""


class Counters:
    """A named-counter bag with dictionary semantics and merging."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts = {}

    def add(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def merge(self, other):
        """Accumulate every counter of ``other`` into this bag."""
        counts = self._counts
        for name, value in other._counts.items():
            counts[name] = counts.get(name, 0) + value

    def as_dict(self):
        """Return a snapshot copy of all counters, keys sorted.

        First-touch order is an accident of execution (a spin site that
        flushes its wait count once per episode inserts the key later than
        one that counted per probe); everything that serialises or
        iterates a bag goes through here, so artifacts never depend on it.
        """
        return dict(sorted(self._counts.items()))

    def __getitem__(self, name):
        """The value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)


class PhaseCycles:
    """Cycles per execution phase of a transactional kernel.

    The phase names mirror Figure 5 of the paper: native-code execution,
    transaction initialization, buffering (read-/write-set logging),
    consistency checking, acquiring/releasing locks, committing, and time
    spent in transactions that ultimately aborted.
    """

    __slots__ = ("cycles",)

    def __init__(self):
        self.cycles = {}

    def merge(self, other):
        """Accumulate another breakdown into this one."""
        cycles = self.cycles
        for phase, value in other.cycles.items():
            cycles[phase] = cycles.get(phase, 0) + value

    def total(self):
        """Total cycles across all phases."""
        return sum(self.cycles.values())

    def fractions(self):
        """Return {phase: fraction of total}; empty dict if no cycles."""
        total = self.total()
        if total == 0:
            return {}
        return {phase: value / total for phase, value in self.cycles.items()}

    def as_dict(self):
        """Return a snapshot copy of the per-phase cycles."""
        return dict(self.cycles)
