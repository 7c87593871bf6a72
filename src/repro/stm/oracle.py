"""Strict-serializability oracle (test infrastructure).

GPU-STM's correctness argument (paper section 3.3) is opacity: every
committed transaction appears to occur atomically at a single point — for
writers, the global-clock increment; for read-only transactions, the point
their snapshot was last verified.

When a runtime is created with ``record_history=True``, it logs every
committed transaction's read-set (address, observed value), write-set and
commit version.  :func:`check_history` replays those records in
serialization order against the pre-kernel memory image and verifies:

1. **Read consistency** — every recorded read matches the replayed state at
   the transaction's serialization point (or the transaction's own write,
   for direct-update runtimes like CGL whose reads can follow own writes);
2. **Final-state agreement** — the replayed writes produce exactly the
   post-kernel memory image on every written address.

Any opacity or atomicity violation in a runtime shows up as a counterexample
here, which is what the randomized (hypothesis) tests hunt for.
"""


class SerializabilityViolation(AssertionError):
    """The recorded history is not strictly serializable."""


def _sort_key(record):
    # Writers serialize at their unique commit version; a read-only
    # transaction with snapshot v serializes just after writer v.
    return (record.version, 1 if not record.writes else 0)


def check_history(history, initial_words, final_mem):
    """Replay ``history`` over ``initial_words``; raise on any violation.

    ``initial_words`` is the full memory image (list) captured before the
    kernel ran; ``final_mem`` is the device memory after.  Returns the
    number of checked transactions.
    """
    state = {}

    def current(addr):
        return state.get(addr, initial_words[addr] if addr < len(initial_words) else 0)

    for record in sorted(history, key=_sort_key):
        own_writes = record.writes
        for addr, observed in record.reads:
            expected = current(addr)
            if observed != expected:
                if addr in own_writes and observed == own_writes[addr]:
                    # Direct-update runtimes (CGL, EGPGV-style re-reads) may
                    # legitimately observe their own earlier write.
                    continue
                raise SerializabilityViolation(
                    "tx tid=%d version=%s read addr=%d value=%d but the "
                    "serialized state holds %d"
                    % (record.tid, record.version, addr, observed, expected)
                )
        for addr, value in own_writes.items():
            state[addr] = value

    for addr, value in state.items():
        device_value = final_mem.read(addr)
        if device_value != value:
            raise SerializabilityViolation(
                "final memory mismatch at addr=%d: replay gives %d, device "
                "holds %d" % (addr, value, device_value)
            )
    return len(history)


def attribute_history(history, initial_words, final_mem, byz_tids=(),
                      byz_addrs=(), max_examples=8):
    """Non-raising :func:`check_history` variant with byzantine attribution.

    Replays the history exactly like :func:`check_history` but classifies
    every violation by culprit: a read violation belongs to the
    transaction that recorded it (byzantine when ``record.tid`` is in
    ``byz_tids``); a final-state divergence belongs to the adversary when
    the last replayed writer of the address is byzantine or the address
    appears in ``byz_addrs`` (out-of-transaction byzantine stores, e.g.
    stale replays), and to the innocents otherwise.

    Returns a dict with the split counts; ``blast_radius`` — the number
    of *innocent* transactions corrupted plus unexplained final
    divergences — is the campaign's containment metric (0 == contained).
    Ties between duplicate versions (a poisoned clock) replay in tid
    order so the attribution itself is deterministic.
    """
    byz_tids = frozenset(byz_tids)
    byz_addrs = frozenset(byz_addrs)
    state = {}
    last_writer = {}

    def current(addr):
        return state.get(addr, initial_words[addr] if addr < len(initial_words) else 0)

    byz_reads = 0
    innocent_reads = 0
    corrupted_tids = set()
    examples = []

    def note(kind, is_byz, text):
        if len(examples) < max_examples:
            examples.append("%s[%s]: %s"
                            % (kind, "byz" if is_byz else "innocent", text))

    for record in sorted(history, key=lambda r: _sort_key(r) + (r.tid,)):
        own_writes = record.writes
        is_byz = record.tid in byz_tids
        for addr, observed in record.reads:
            expected = current(addr)
            if observed != expected:
                if addr in own_writes and observed == own_writes[addr]:
                    continue
                if is_byz:
                    byz_reads += 1
                else:
                    innocent_reads += 1
                    corrupted_tids.add(record.tid)
                note("read", is_byz,
                     "tx tid=%d version=%s addr=%d saw %d, serialized "
                     "state holds %d"
                     % (record.tid, record.version, addr, observed, expected))
                break  # one violation corrupts the whole transaction
        for addr, value in own_writes.items():
            state[addr] = value
            last_writer[addr] = record.tid

    byz_divergence = 0
    innocent_divergence = 0
    for addr, value in state.items():
        device_value = final_mem.read(addr)
        if device_value != value:
            is_byz = addr in byz_addrs or last_writer.get(addr) in byz_tids
            if is_byz:
                byz_divergence += 1
            else:
                innocent_divergence += 1
            note("final", is_byz,
                 "addr=%d: replay gives %d, device holds %d"
                 % (addr, value, device_value))

    return {
        "checked": len(history),
        "byz_read_violations": byz_reads,
        "innocent_read_violations": innocent_reads,
        "byz_divergence": byz_divergence,
        "innocent_divergence": innocent_divergence,
        "corrupted_innocent_txs": len(corrupted_tids),
        "blast_radius": innocent_reads + innocent_divergence,
        "examples": examples,
    }
