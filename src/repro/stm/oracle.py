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

A violation among *committed* transactions shows up as a counterexample
here, which is what the randomized (hypothesis) tests hunt for.  That is
less than opacity: only ``TmRuntime.note_commit`` writes the history, so
an aborted attempt's reads are not checked, and a read-time-only
validation lie on ``tbv-sorting`` passes every checker (ROADMAP item 25).
"""


class SerializabilityViolation(AssertionError):
    """The recorded history is not strictly serializable."""


def _sort_key(record):
    # Writers serialize at their unique commit version; a read-only
    # transaction with snapshot v serializes just after writer v.
    return (record.version, 1 if not record.writes else 0)


def _replay(history, initial_words, final_mem, key):
    """Replay ``history`` in ``key`` order over ``initial_words``; yield
    every violation.

    A transaction's first read that disagrees with the replayed state
    yields ``("read", record, addr, observed, expected)``; one corrupts
    the whole transaction, so its later reads go unchecked.  Reads of the
    transaction's own write are fine: direct-update runtimes (CGL,
    EGPGV-style re-reads) may legitimately observe their own earlier
    write.  Then every written address whose replayed value the device
    does not hold yields ``("final", tid, addr, replayed, device)``,
    ``tid`` being its last replayed writer.
    """
    state = {}
    last_writer = {}
    size = len(initial_words)
    for record in sorted(history, key=key):
        own_writes = record.writes
        for addr, observed in record.reads:
            expected = state.get(addr, initial_words[addr] if addr < size else 0)
            if observed != expected and not (
                    addr in own_writes and observed == own_writes[addr]):
                yield "read", record, addr, observed, expected
                break
        for addr, value in own_writes.items():
            state[addr] = value
            last_writer[addr] = record.tid
    for addr, value in state.items():
        device_value = final_mem.read(addr)
        if device_value != value:
            yield "final", last_writer[addr], addr, value, device_value


def check_history(history, initial_words, final_mem):
    """Replay ``history`` over ``initial_words``; raise on any violation.

    ``initial_words`` is the full memory image (list) captured before the
    kernel ran; ``final_mem`` is the device memory after.  Returns the
    number of checked transactions.
    """
    for kind, who, addr, seen, expected in _replay(
            history, initial_words, final_mem, _sort_key):
        if kind == "read":
            raise SerializabilityViolation(
                "tx tid=%d version=%s read addr=%d value=%d but the "
                "serialized state holds %d"
                % (who.tid, who.version, addr, seen, expected)
            )
        raise SerializabilityViolation(
            "final memory mismatch at addr=%d: replay gives %d, device "
            "holds %d" % (addr, seen, expected)
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
    counts = {"read": [0, 0], "final": [0, 0]}  # kind -> [innocent, byz]
    corrupted_tids = set()
    examples = []
    for kind, who, addr, seen, expected in _replay(
            history, initial_words, final_mem,
            lambda r: _sort_key(r) + (r.tid,)):
        if kind == "read":
            is_byz = who.tid in byz_tids
            if not is_byz:
                corrupted_tids.add(who.tid)
            text = ("tx tid=%d version=%s addr=%d saw %d, serialized "
                    "state holds %d"
                    % (who.tid, who.version, addr, seen, expected))
        else:
            is_byz = addr in byz_addrs or who in byz_tids
            text = ("addr=%d: replay gives %d, device holds %d"
                    % (addr, seen, expected))
        counts[kind][is_byz] += 1
        if len(examples) < max_examples:
            examples.append("%s[%s]: %s"
                            % (kind, "byz" if is_byz else "innocent", text))

    return {
        "checked": len(history),
        "byz_read_violations": counts["read"][1],
        "innocent_read_violations": counts["read"][0],
        "byz_divergence": counts["final"][1],
        "innocent_divergence": counts["final"][0],
        "corrupted_innocent_txs": len(corrupted_tids),
        "blast_radius": counts["read"][0] + counts["final"][0],
        "examples": examples,
    }
