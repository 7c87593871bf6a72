"""Encounter-time lock-sorting: the local lock-log (paper section 3.1).

Every transactional read or write inserts the id of the global version lock
managing the touched stripe into a thread-local log, *keeping the log sorted
as it grows*.  At commit time the log is walked front to back, so all
transactions acquire locks in one global order (ascending lock id) and
lockstep warps cannot livelock — no backoff needed.

Sorted insertion into a flat log costs O(n) comparisons per insert, O(n^2)
per transaction.  The paper reduces this by organizing the log as an
*order-preserving hash table*: an incoming lock id is hashed to a bucket
(bucket boundaries partition the id range in order), then insertion-sorted
within that bucket only.  Iterating buckets first-to-last and entries
in-bucket yields the globally sorted sequence.

The log also carries the paper's per-entry read-bit and write-bit
(Algorithm 2's two low bits of each local lock-table entry), and merges
duplicates so each lock is acquired at most once.  ``comparisons`` counts
the insertion comparisons a linear in-bucket scan makes, so the ablation
benchmark can show the hashed layout's win over a single sorted list; the
logs of one runtime share one :class:`ComparisonTally`, so the runtime
reads its total without keeping its threads.
"""

from bisect import bisect_left


class ComparisonTally:
    """Insertion comparisons summed over the lock logs that share it."""

    __slots__ = ("comparisons",)

    def __init__(self):
        self.comparisons = 0


class LockEntry:
    """One local lock-table entry: lock id plus read-/write-bits."""

    __slots__ = ("lock_id", "write", "read")

    def __init__(self, lock_id, write, read):
        self.lock_id = lock_id
        self.write = write
        self.read = read


class LockLog:
    """Order-preserving hashed lock-log of one transaction.

    A bucket is made when the first id lands in it, so a thread whose
    transactions never touch a lock allocates none.  ``tally`` is the
    :class:`ComparisonTally` the log counts into (its own by default).
    """

    __slots__ = ("num_locks", "num_buckets", "_buckets", "_ids", "tally", "_flat")

    def __init__(self, num_locks, num_buckets=16, tally=None):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.num_locks = num_locks
        self.num_buckets = min(num_buckets, num_locks)
        # bucket index -> its lock ids, ascending
        self._buckets = {}
        self._ids = {}
        self.tally = ComparisonTally() if tally is None else tally
        # cached flattened (sorted) entry list; commit-time lock walks
        # iterate the log once per acquisition attempt, so the flatten is
        # done once per mutation instead of once per walk
        self._flat = None

    @property
    def comparisons(self):
        """Comparisons counted into this log's tally."""
        return self.tally.comparisons

    def insert(self, lock_id, write=False, read=False):
        """Insert ``lock_id`` keeping sorted order; merge duplicate entries.

        Returns the entry (new or merged).
        """
        if not 0 <= lock_id < self.num_locks:
            raise ValueError(
                "lock id %d out of range [0, %d)" % (lock_id, self.num_locks)
            )
        ids = self._ids
        entry = ids.get(lock_id)
        if entry is not None:
            entry.write = entry.write or write
            entry.read = entry.read or read
            return entry
        ids[lock_id] = entry = LockEntry(lock_id, write, read)
        # order-preserving partition of [0, num_locks) into num_buckets ranges
        index = lock_id * self.num_buckets // self.num_locks
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [lock_id]
        else:
            # Insertion sort within the bucket (the paper's "inserted into
            # a corresponding position"), counted as the linear scan
            # compares: up to and including the first larger id, or the
            # whole bucket when none is larger.
            size = len(bucket)
            position = bisect_left(bucket, lock_id)
            bucket.insert(position, lock_id)
            self.tally.comparisons += position + 1 if position < size else size
        self._flat = None
        return entry

    def clear(self):
        """Reset to empty (transaction begin)."""
        self._buckets.clear()
        self._ids.clear()
        self._flat = None

    def __len__(self):
        return len(self._ids)

    def __iter__(self):
        """Iterate entries in globally sorted (ascending lock id) order."""
        flat = self._flat
        if flat is None:
            ids = self._ids
            buckets = self._buckets
            self._flat = flat = [
                ids[lock_id]
                for index in sorted(buckets)
                for lock_id in buckets[index]
            ]
        return iter(flat)


class EncounterOrderLog:
    """Unsorted lock log: acquisition in *encounter* order.

    This is what a lock-based STM uses when it does not sort — the layout of
    STM-HV-Backoff, which instead prevents intra-warp livelock with the
    two-phase warp backoff.  Same interface as :class:`LockLog` (duplicate
    merging, read-/write-bits), but iteration follows insertion order and no
    comparisons are spent.
    """

    __slots__ = ("num_locks", "_entries", "_ids")

    def __init__(self, num_locks):
        self.num_locks = num_locks
        self._entries = []
        self._ids = {}

    def insert(self, lock_id, write=False, read=False):
        """Append ``lock_id`` (merging duplicates); returns the entry."""
        if not 0 <= lock_id < self.num_locks:
            raise ValueError(
                "lock id %d out of range [0, %d)" % (lock_id, self.num_locks)
            )
        entry = self._ids.get(lock_id)
        if entry is not None:
            entry.write = entry.write or write
            entry.read = entry.read or read
            return entry
        entry = LockEntry(lock_id, write, read)
        self._entries.append(entry)
        self._ids[lock_id] = entry
        return entry

    def clear(self):
        self._entries.clear()
        self._ids.clear()

    def __iter__(self):
        return iter(self._entries)
