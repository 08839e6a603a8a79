"""The long-running GC service: an unbounded-stream simulation process.

:class:`GcService` wraps one :class:`~repro.sim.simulator.Simulation` in a
service loop that adds what a long-lived process needs on top of trace
replay:

* **durability cadence** — periodic quiescent-point checkpoints
  (:func:`repro.tx.recovery.build_checkpoint`) written through the WAL
  and installed into the redo log, which truncates it: recovery after a
  crash replays only the suffix logged since the last checkpoint;
* **bounded memory** — admission control
  (:mod:`repro.service.backpressure`) that forces collections and sheds
  or delays incoming work before the modelled heap can exceed its bound;
* **graceful shutdown** — SIGTERM/SIGINT (or
  :meth:`GcService.request_shutdown`) drains the in-flight transaction,
  takes a final checkpoint, and returns a report;
* **pacing** — optional wall-clock throttling to a target ops/sec;
* **observability** — checkpoint/shed/heartbeat events and
  ``service.*`` metrics through :mod:`repro.obs`.

Events are replayed by the batched interpreter of :mod:`repro.sim.batch`,
fed from the stream one event at a time (:class:`_Feed`): the fused fast
mode when the run is eligible — redo log and WAL included — and the
guarded per-event mode under fault injection, parallel collection or
admission control. The service pulls event *k+1* only after it has
applied event *k* (and any collection it triggered), so an open-loop
client sees every stall. Service hooks — checkpoints, the log bound,
``max_events``, shutdown — run where the interpreter hands back control.

Crash semantics are identical to finite drills: an injected
:class:`~repro.faults.injector.SimulatedCrash` propagates annotated with
``event_index``/``resume_index``, and a recovered service resumes the
stream at exactly that index (:mod:`repro.service.soak` drives the
cycle).
"""

from __future__ import annotations

import dataclasses
import signal
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.rate_policy import RatePolicy
from repro.events import (
    AbortTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PointerWriteEvent,
    TraceEvent,
)
from repro.faults.injector import SimulatedCrash
from repro.gc.selection import PartitionSelectionPolicy
from repro.service.backpressure import AdmissionController, BackpressureStats
from repro.service.config import ServiceConfig
from repro.service.stream import EventStream
from repro.sim.batch import StreamWindow, _fast_eligible, replay_window
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import ObjectStore
from repro.tx.recovery import RedoLog, build_checkpoint

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.telemetry import RunTelemetry


@dataclass
class ServiceReport:
    """Everything one service run (start → stop/crash boundary) produced."""

    #: Stream events consumed (applied + shed; phase markers included).
    events_seen: int = 0
    #: Events actually applied to the store.
    events_applied: int = 0
    #: Absolute stream index the next run should resume from.
    next_index: int = 0
    #: Checkpoints installed (including the final one).
    checkpoints: int = 0
    #: Collections performed over the run (forced ones included).
    collections: int = 0
    #: Why the loop stopped: end-of-stream / max-events / shutdown.
    stopped: str = ""
    #: SHA-256 of the committed reachable state at stop.
    final_digest: str = ""
    #: Peak modelled heap occupancy observed (bytes).
    heap_peak_bytes: int = 0
    #: Redo-log lifetime counters at stop.
    log_appended_total: int = 0
    log_truncated_total: int = 0
    #: Records currently after the last checkpoint.
    log_suffix_length: int = 0
    #: WAL statistics snapshot (``WalStats.as_metrics`` shape).
    wal: dict = field(default_factory=dict)
    #: Admission-control outcomes (zeroes when backpressure is off).
    backpressure: BackpressureStats = field(default_factory=BackpressureStats)
    #: Wall-clock seconds spent sleeping for pacing.
    paced_sleep_s: float = 0.0
    #: Wall-clock seconds the run took.
    wall_s: float = 0.0


#: Events the column window may hold before the service recycles it at the
#: next quiescent point (every checkpoint recycles it too), so memory stays
#: bounded on unbounded streams.
_WINDOW_EVENTS = 8192


def _paced(
    events: Iterator[TraceEvent], rate: float, started: float, report
) -> Iterator[TraceEvent]:
    """Hold ``events`` to ``rate`` per wall-clock second since ``started``.

    Before handing over event *k+1* it sleeps until ``started + k / rate``:
    the service has applied event *k* by then, since it never pulls ahead.
    Sleep time accrues in ``report.paced_sleep_s``. Pacing is wall-clock
    behaviour only; it never changes what the service computes.
    """
    handed = 0
    next_event = iter(events).__next__
    while True:
        if handed:
            ahead = started + handed / rate - time.monotonic()
            if ahead > 0.001:
                time.sleep(ahead)
                report.paced_sleep_s += ahead
        try:
            event = next_event()
        except StopIteration:
            return
        handed += 1
        yield event


class _Feed:
    """The service's end of the interpreter's pull protocol.

    :func:`repro.sim.batch.replay_window` calls :meth:`pull` after it has
    applied every event in the window. ``pull`` pushes the next stream
    event, or declines when a service hook needs the flushed state — a
    checkpoint (cadence or log bound), shutdown, a full window, all at
    quiescent points only — or when the ``max_events`` window or the
    stream has ended; :meth:`boundary` then runs the hook. Under admission
    control (guarded mode, so the simulation state is always current)
    ``pull`` sheds events itself: they count as seen, are never pushed,
    and get the per-event collection check of an applied event.
    """

    __slots__ = (
        "gcs", "source", "window", "tx", "log", "admission", "seen",
        "applied", "heap_peak", "limit", "max_log", "every",
        "checkpointed_at", "due_at", "exhausted",
    )

    def __init__(self, gcs: "GcService", source: Iterator[TraceEvent]) -> None:
        svc = gcs.service
        self.gcs = gcs
        self.source = source
        self.window = StreamWindow()
        self.tx = gcs.sim.tx
        self.log = gcs.sim.redo_log
        self.admission = gcs.admission
        #: Stream events consumed (applied + shed) and applied this run.
        self.seen = 0
        self.applied = 0
        #: Largest db_size after any event (raised by the interpreter).
        self.heap_peak = 0
        self.limit = svc.max_events if svc.max_events is not None else float("inf")
        self.max_log = svc.max_log_records
        self.every = svc.checkpoint_every_events
        #: ``applied`` when the last checkpoint was taken (negative when an
        #: earlier run of this service left events uncheckpointed).
        self.checkpointed_at = -gcs._events_since_checkpoint
        self.exhausted = False
        self._rearm()

    def _rearm(self) -> None:
        self.due_at = min(
            self.checkpointed_at + self.every, self.applied + _WINDOW_EVENTS
        )

    def pull(self) -> bool:
        while True:
            if (
                self.applied >= self.due_at
                or self.gcs._shutdown_requested
                or self.max_log is not None
                and self.log.suffix_length > self.max_log
            ) and not self.tx.in_transaction:
                return False
            if self.seen >= self.limit:
                return False
            event = next(self.source, None)
            if event is None:
                self.exhausted = True
                return False
            self.seen += 1
            if self.admission is not None and not self._admitted(event):
                continue
            self.applied += 1
            self.window.push(event)
            return True

    def _admitted(self, event: TraceEvent) -> bool:
        # Admission runs against event k's own index and may collect or
        # abort; a crash in between resumes at event k, as it would
        # mid-application.
        sim = self.gcs.sim
        sim._event_index += 1
        sim._event_applied = False
        if self.gcs._admit(event):
            sim._event_index -= 1  # the interpreter counts it as it applies
            sim._event_applied = True
            return True
        sim._event_applied = True
        if not self.tx.in_transaction:
            while sim._clock() >= sim._due_at:
                sim._collect()
        return False

    def boundary(self, report: ServiceReport) -> Optional[str]:
        """Run the hook that made :meth:`pull` decline, on flushed state.

        Returns the stop reason, or None to resume replay. Every event in
        the window has been applied by now, so the window is recycled.
        """
        self.window.clear()
        gcs = self.gcs
        if not self.tx.in_transaction:
            if self.applied - self.checkpointed_at >= self.every or (
                self.max_log is not None and self.log.suffix_length > self.max_log
            ):
                gcs._checkpoint(report)
                self.checkpointed_at = self.applied
                self._rearm()
                return None
            if gcs._shutdown_requested:
                return "shutdown"
        if self.seen >= self.limit:
            return "max-events"
        if self.exhausted:
            return "end-of-stream"
        self._rearm()
        return None


class GcService:
    """A long-lived simulation process over an unbounded event stream.

    Args:
        policy: Collection-rate policy (fresh instance; rebuilt by the
            soak harness after each crash, like finite drills do).
        stream: The event source; must be replayable from any index.
        selection: Partition-selection policy (default as Simulation's).
        sim_config: Base simulation config; redo logging and the WAL are
            force-enabled (a service without durability could not
            recover).
        service: The :class:`ServiceConfig` knobs.
        faults: Fault plan or live injector (soak drills share one
            injector across crash cycles).
        obs: Optional telemetry (``kind="service"``).
        store / redo_log: Recovered state to resume onto, exactly like
            :class:`~repro.sim.simulator.Simulation`.
    """

    def __init__(
        self,
        policy: RatePolicy,
        stream: EventStream,
        selection: Optional[PartitionSelectionPolicy] = None,
        sim_config: Optional[SimulationConfig] = None,
        service: Optional[ServiceConfig] = None,
        faults=None,
        obs: Optional["RunTelemetry"] = None,
        store: Optional[ObjectStore] = None,
        redo_log: Optional[RedoLog] = None,
    ) -> None:
        self.service = service or ServiceConfig()
        base = sim_config or SimulationConfig()
        config = dataclasses.replace(
            base, enable_redo_log=True, enable_wal=True
        )
        self.sim = Simulation(
            policy=policy,
            selection=selection,
            config=config,
            faults=faults,
            store=store,
            redo_log=redo_log,
            obs=obs,
        )
        self.stream = stream
        self.obs = obs
        self.admission: Optional[AdmissionController] = None
        if (
            self.service.max_heap_bytes is not None
            and self.service.backpressure != "off"
        ):
            self.admission = AdmissionController(
                self.service.max_heap_bytes,
                self.service.backpressure,
                self._forced_collect,
            )
        self._shutdown_requested = False
        self._shed_oids: set = set()
        self._shed_txid: Optional[int] = None
        self._events_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the loop to drain and stop (signal-handler safe)."""
        self._shutdown_requested = True

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handler(signum, frame):
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------

    def run(self, start_index: int = 0) -> ServiceReport:
        """Consume the stream from ``start_index`` until a stop condition.

        Stop conditions: the stream ends, ``service.max_events`` stream
        events were consumed, or shutdown was requested — the latter
        drains the in-flight transaction first, so the stop point is
        quiescent and the final checkpoint covers everything applied.
        (``max_events`` is an exact window boundary, honoured even
        mid-transaction: soak drills rely on every segment consuming
        precisely the same absolute stream window as the reference,
        whatever index a segment started from.) An injected crash
        propagates as :class:`~repro.faults.injector.SimulatedCrash`
        annotated with the resume index, like :meth:`Simulation.run`.
        """
        sim = self.sim
        svc = self.service
        store = sim.store
        tx = sim.tx
        run_started = time.monotonic()
        report = ServiceReport(next_index=start_index)
        source = self.stream.events_from(start_index)
        if svc.target_ops_per_s is not None:
            source = _paced(source, svc.target_ops_per_s, run_started, report)
        sim._event_index = start_index - 1
        sim._tx_start_index = None
        obs = self.obs
        if obs is not None:
            obs.event(
                "service_start",
                stream=self.stream.label,
                start_index=start_index,
                policy=sim.policy.describe(),
            )
        feed = _Feed(self, source)
        stopped = None
        try:
            sim._schedule(sim.policy.first_trigger(store, store.iostats))
            fast = self.admission is None and _fast_eligible(sim)
            while stopped is None:
                replay_window(sim, feed.window, feed, fast)
                stopped = feed.boundary(report)
        except SimulatedCrash as crash:
            crash.event_index = sim._event_index
            crash.resume_index = (
                sim._tx_start_index
                if tx.in_transaction and sim._tx_start_index is not None
                else sim._event_index + (0 if not sim._event_applied else 1)
            )
            raise
        report.events_seen = feed.seen
        report.events_applied = feed.applied
        report.heap_peak_bytes = feed.heap_peak
        self._events_since_checkpoint = feed.applied - feed.checkpointed_at
        # Quiescent stop: flush a final checkpoint so a restart replays
        # nothing. (A malformed finite stream ending mid-transaction skips
        # it — checkpoints are only ever taken between transactions.)
        if not tx.in_transaction and report.events_applied:
            self._checkpoint(report)
        report.stopped = stopped
        report.next_index = start_index + report.events_seen
        report.wall_s = time.monotonic() - run_started
        self._finalise(report)
        return report

    # ------------------------------------------------------------------
    # Event admission
    # ------------------------------------------------------------------

    def _admit(self, event: TraceEvent) -> bool:
        """Admission control for one pulled event: True to apply it,
        False when it is shed (its transaction block aborted and the rest
        of the block skipped)."""
        admission = self.admission
        shed = self._shed_oids
        cls = event.__class__
        # Skip the remainder of a shed transaction block.
        if self._shed_txid is not None:
            if cls is CommitTransactionEvent or cls is AbortTransactionEvent:
                if event.txid == self._shed_txid:
                    self._shed_txid = None
                    admission.stats.shed_events += 1
                    return False
            admission.stats.shed_events += 1
            self._note_shed_references(event)
            return False
        # Cascade: anything referencing a shed object is itself shed (the
        # store has never seen those oids, so applying would fault).
        if shed and self._references_shed(event):
            admission.stats.shed_events += 1
            self._note_shed_references(event)
            return False
        # Admission: allocations must fit under the heap bound.
        if cls is CreateEvent:
            in_transaction = self.sim.tx.in_transaction
            if not admission.admit(self.sim.store, event.size, not in_transaction):
                admission.stats.shed_events += 1
                admission.stats.shed_objects += 1
                shed.add(event.oid)
                if in_transaction:
                    # Transactions are atomic: a rejected allocation sheds
                    # the whole block. Undo what already applied and skip
                    # to the block's end.
                    txid = self.sim.tx.current.txid
                    self.sim.tx.abort(txid)
                    self._shed_txid = txid
                    admission.stats.shed_transactions += 1
                if self.obs is not None:
                    self.obs.metrics.counter("service.backpressure.sheds").inc()
                return False
        self._prune_ledger(event)
        return True

    def _references_shed(self, event: TraceEvent) -> bool:
        shed = self._shed_oids
        cls = event.__class__
        if cls is CreateEvent:
            return any(
                target is not None and target in shed
                for _slot, target in event.pointers
            )
        if cls is PointerWriteEvent:
            return event.src in shed or (
                event.target is not None and event.target in shed
            )
        oid = getattr(event, "oid", None)
        return oid is not None and oid in shed

    def _note_shed_references(self, event: TraceEvent) -> None:
        """Cascade and prune the shed ledger for a skipped event."""
        if event.__class__ is CreateEvent:
            self._shed_oids.add(event.oid)
            self.admission.stats.shed_objects += 1
        self._prune_ledger(event)

    def _prune_ledger(self, event: TraceEvent) -> None:
        """Drop shed oids once their death is announced by the stream.

        A ``dies`` annotation is the stream's statement that no later
        event references those objects, so the ledger can forget them —
        this is what keeps shed-set memory bounded over unbounded streams.
        """
        if self._shed_oids and event.__class__ is PointerWriteEvent and event.dies:
            self._shed_oids.difference_update(event.dies)

    # ------------------------------------------------------------------
    # Durability and collection
    # ------------------------------------------------------------------

    def _forced_collect(self) -> bool:
        # Backpressure hit the heap bound: fall back to stop-the-world.
        # force=True bypasses the parallel scheduler's pump phase so the
        # collection happens *now* (a valid speculative trace is still
        # harvested, but admission never proceeds on a promise).
        store = self.sim.store
        before = store.db_size
        self.sim._collect(force=True)
        return store.db_size < before

    def _checkpoint(self, report: ServiceReport) -> None:
        """Snapshot, pay the WAL cost, truncate the log (quiescent only).

        Ordering is crash-safe: the WAL write (which an injected
        ``io.write`` fault may kill) happens *before* the redo log is
        truncated, so a crash mid-checkpoint leaves the previous
        checkpoint + full suffix intact and recovery unaffected.
        """
        sim = self.sim
        snapshot = build_checkpoint(sim.store, sim._event_index + 1)
        if sim.tx.wal is not None:
            sim.tx.wal.checkpoint(snapshot.estimated_bytes)
        dropped = sim.redo_log.install_checkpoint(snapshot)
        self._events_since_checkpoint = 0
        report.checkpoints += 1
        if self.obs is not None:
            self.obs.event(
                "checkpoint",
                event_index=snapshot.event_index,
                objects=len(snapshot.objects),
                log_records_dropped=dropped,
                heap_bytes=sim.store.db_size,
            )
            self.obs.metrics.counter("service.checkpoints").inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _finalise(self, report: ServiceReport) -> None:
        from repro.faults.drill import state_digest

        sim = self.sim
        report.collections = sim.collector.collections_performed
        report.final_digest = state_digest(sim.store)
        if sim.store.db_size > report.heap_peak_bytes:
            report.heap_peak_bytes = sim.store.db_size
        if sim.redo_log is not None:
            report.log_appended_total = sim.redo_log.appended_total
            report.log_truncated_total = sim.redo_log.truncated_total
            report.log_suffix_length = sim.redo_log.suffix_length
        if sim.tx.wal is not None:
            report.wal = sim.tx.wal.stats.as_metrics()
        if self.admission is not None:
            report.backpressure = self.admission.stats
        obs = self.obs
        if obs is not None:
            metrics = obs.metrics
            metrics.gauge("service.events_seen").set(report.events_seen)
            metrics.gauge("service.events_applied").set(report.events_applied)
            metrics.gauge("service.next_index").set(report.next_index)
            metrics.gauge("service.collections").set(report.collections)
            metrics.gauge("service.heap_peak_bytes").set(report.heap_peak_bytes)
            metrics.gauge("service.log_suffix").set(report.log_suffix_length)
            metrics.set_many(
                report.backpressure.as_metrics(),
                prefix="service.backpressure.",
            )
            if report.wal:
                metrics.set_many(report.wal, prefix="wal.")
            metrics.gauge("service.paced_sleep_s").set(
                round(report.paced_sleep_s, 6)
            )
            obs.event(
                "service_stop",
                stopped=report.stopped,
                events_seen=report.events_seen,
                events_applied=report.events_applied,
                checkpoints=report.checkpoints,
                digest=report.final_digest,
            )
