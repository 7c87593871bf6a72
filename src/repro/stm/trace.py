"""Transaction observers: the runtime's one event slot.

Every :class:`~repro.stm.runtime.base.TmRuntime` has one observer slot,
``runtime.tracer``: ``None``, one observer, or a tuple of observers
(:meth:`~repro.stm.runtime.base.TmRuntime.observe` appends one).  An
observer implements any subset of four seams:

* ``on_commit(tx, version)`` — a transaction committed;
* ``on_abort(tx, reason)`` — an attempt aborted;
* ``on_tx_read(tx, addr)`` — a real global read served a ``tx_read``;
* ``filter_validation(tx, stage, verdict)`` — a failing validation
  verdict, which the observer may flip.

:func:`observer_seams` resolves the seams once, when the slot is set:
each is ``None`` when no observer implements it, the one implementer's
bound method, or one fan-out over every implementer in slot order
(``filter_validation`` chains, each observer seeing the previous
verdict).  The telemetry session (whose timeline holds one ``tx`` slice
per attempt, with its outcome and abort reason or commit version), the
online sanitizer and a byzantine injector are the observers.
"""

#: the seams a transaction observer may implement, in slot-resolution order
OBSERVER_SEAMS = ("on_commit", "on_abort", "on_tx_read", "filter_validation")


def observer_seams(observer):
    """The slot's seams as a tuple in :data:`OBSERVER_SEAMS` order: each
    ``None``, one bound method, or a fan-out over the implementers."""
    if observer is None:
        observers = ()
    elif isinstance(observer, tuple):
        observers = observer
    else:
        observers = (observer,)
    seams = []
    for name in OBSERVER_SEAMS:
        methods = [getattr(o, name) for o in observers
                   if getattr(o, name, None) is not None]
        if len(methods) < 2:
            seams.append(methods[0] if methods else None)
        elif name == "filter_validation":
            seams.append(_chain(methods))
        else:
            seams.append(_fan_out(methods))
    return tuple(seams)


def _fan_out(methods):
    def fan_out(*args):
        for method in methods:
            method(*args)

    return fan_out


def _chain(methods):
    def chain(tx, stage, verdict):
        for method in methods:
            verdict = method(tx, stage, verdict)
        return verdict

    return chain

