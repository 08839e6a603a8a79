"""The per-event scalar interpreter, kept as the byte-identity oracle.

:meth:`repro.sim.simulator.Simulation.run` compiles its input and replays
it through the batched interpreter (:mod:`repro.sim.batch`). Before that,
a second interpreter decoded one :class:`~repro.events.TraceEvent` at a
time and dispatched it to the store's public methods. That loop is kept
here as :func:`run_scalar`, which drives a :class:`Simulation`'s own
trigger clock, collection and idle hooks, so tests can demand pickle-equal
summaries, identical store digests, redo logs and WAL statistics.

Dispatch is a plain ``isinstance`` chain in the original handler order;
the production loop's per-class memo tables are not reproduced.
"""

from __future__ import annotations

import itertools

from repro.core.extensions import OpportunisticPolicy
from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.injector import SimulatedCrash
from repro.sim.simulator import SimulationResult

#: Events whose application mutates durable logical state.
_MUTATING = (PointerWriteEvent, CreateEvent, UpdateEvent, RootEvent)


def _dispatch(sim, event, sink) -> None:
    if isinstance(event, PointerWriteEvent):
        sink.write_pointer(event.src, event.slot, event.target, dies=event.dies)
    elif isinstance(event, CreateEvent):
        sink.create(
            size=event.size,
            kind=event.kind,
            pointers=dict(event.pointers),
            oid=event.oid,
        )
    elif isinstance(event, AccessEvent):
        sink.access(event.oid)
    elif isinstance(event, UpdateEvent):
        sink.update(event.oid)
    elif isinstance(event, RootEvent):
        sink.register_root(event.oid)
    elif isinstance(event, BeginTransactionEvent):
        sim.tx.begin(event.txid)
        sim._tx_start_index = sim._event_index
    elif isinstance(event, CommitTransactionEvent):
        sim.tx.commit(event.txid)
    elif isinstance(event, AbortTransactionEvent):
        sim.tx.abort(event.txid)
    elif isinstance(event, PhaseMarkerEvent):
        sim.sampler.on_phase(event.name)
    elif not isinstance(event, IdleEvent):  # idle: no store activity
        raise TypeError(f"unknown trace event class {type(event)!r}")


def apply_event(sim, event) -> None:
    """Apply one event to ``sim``'s store or open transaction.

    With a redo log, a mutation outside an explicit transaction is
    auto-committed as a singleton transaction with a negative txid, so the
    log covers the whole trace.
    """
    tx = sim.tx
    if (
        sim.redo_log is not None
        and not tx.in_transaction
        and isinstance(event, _MUTATING)
    ):
        txid = sim._auto_txid
        sim._auto_txid -= 1
        tx.begin(txid, undo=False)
        sim._tx_start_index = sim._event_index
        _dispatch(sim, event, tx)
        tx.commit(txid)
        return
    _dispatch(sim, event, tx if tx.in_transaction else sim.store)


def note_activity(sim) -> None:
    """Tell an opportunistic policy that a database event just ran."""
    if isinstance(sim.policy, OpportunisticPolicy):
        sim.policy.note_activity()


def run_scalar(sim, trace, start_index: int = 0) -> SimulationResult:
    """Replay ``trace`` on ``sim`` one event at a time.

    Same contract as :meth:`Simulation.run`: ``start_index`` skips events
    while keeping indices absolute, and an escaping
    :class:`SimulatedCrash` carries ``event_index`` and ``resume_index``.
    """
    events = itertools.islice(iter(trace), start_index, None)
    sim._event_index = start_index - 1
    sim._tx_start_index = None
    store = sim.store
    iostats = store.iostats
    tx = sim.tx
    try:
        sim._schedule(sim.policy.first_trigger(store, iostats))
        for event in events:
            sim._event_index += 1
            # Whether the current event's application finished decides if
            # a crash resumes at this event or the next one.
            sim._event_applied = False
            apply_event(sim, event)
            sim._event_applied = True
            if isinstance(event, PhaseMarkerEvent):
                continue
            if isinstance(event, IdleEvent):
                sim._handle_idle(event.ticks)
                continue
            note_activity(sim)
            sim.sampler.on_event(store, iostats)
            if tx.in_transaction:
                # Never collected mid-transaction (§3.2's whole-database
                # lock model); triggers fire at commit/abort.
                continue
            while sim._clock() >= sim._due_at:
                sim._collect()
    except SimulatedCrash as crash:
        crash.event_index = sim._event_index
        crash.resume_index = (
            sim._tx_start_index
            if tx.in_transaction and sim._tx_start_index is not None
            else sim._event_index + (0 if not sim._event_applied else 1)
        )
        raise
    result = SimulationResult(
        summary=sim.sampler.summary(store, iostats),
        sampler=sim.sampler,
        store=store,
        policy=sim.policy,
    )
    if sim.obs is not None:
        sim.obs.on_run_end(sim, result)
    return result
