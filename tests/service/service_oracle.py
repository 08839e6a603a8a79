"""The per-event service loop, kept as the byte-identity oracle.

``GcService.run`` replays the stream through the batched interpreter
(:func:`repro.sim.batch.replay_window`). Before that, it applied one event
object at a time (:func:`scalar_oracle.apply_event`) and sampled it by hand, with
every service hook checked after every event. That loop is kept here as
:class:`OracleService`, so tests can demand that both produce the same
reports, digests, sampler summaries, redo logs and WAL statistics.

One deliberate change from the original loop: ``max_events=0`` consumes
no event (the original applied one before checking the bound).
"""

from __future__ import annotations

import time

from scalar_oracle import apply_event, note_activity

from repro.events import IdleEvent, PhaseMarkerEvent, TraceEvent
from repro.faults.injector import SimulatedCrash
from repro.service.server import GcService, ServiceReport


class OracleService(GcService):
    """A :class:`GcService` whose ``run`` is the original per-event loop."""

    def run(self, start_index: int = 0) -> ServiceReport:
        sim = self.sim
        svc = self.service
        store = sim.store
        iostats = store.iostats
        tx = sim.tx
        run_started = time.monotonic()
        report = ServiceReport(next_index=start_index)
        events = self.stream.events_from(start_index)
        sim._event_index = start_index - 1
        sim._tx_start_index = None
        rate = svc.target_ops_per_s
        max_events = svc.max_events
        obs = self.obs
        if obs is not None:
            obs.event(
                "service_start",
                stream=self.stream.label,
                start_index=start_index,
                policy=sim.policy.describe(),
            )
        stopped = "end-of-stream"
        if max_events == 0:
            events = iter(())
            stopped = "max-events"
        try:
            sim._schedule(sim.policy.first_trigger(store, iostats))
            for event in events:
                sim._event_index += 1
                sim._event_applied = False
                report.events_seen += 1
                applied = self._process(event)
                sim._event_applied = True
                if applied:
                    report.events_applied += 1
                    self._events_since_checkpoint += 1
                occupancy = store.db_size
                if occupancy > report.heap_peak_bytes:
                    report.heap_peak_bytes = occupancy
                if not tx.in_transaction:
                    while sim._clock() >= sim._due_at:
                        sim._collect()
                    if self._checkpoint_due():
                        self._checkpoint(report)
                    if self._shutdown_requested:
                        stopped = "shutdown"
                        break
                if max_events is not None and report.events_seen >= max_events:
                    stopped = "max-events"
                    break
                if rate is not None:
                    ahead = (
                        run_started
                        + report.events_seen / rate
                        - time.monotonic()
                    )
                    if ahead > 0.001:
                        time.sleep(ahead)
                        report.paced_sleep_s += ahead
        except SimulatedCrash as crash:
            crash.event_index = sim._event_index
            crash.resume_index = (
                sim._tx_start_index
                if tx.in_transaction and sim._tx_start_index is not None
                else sim._event_index + (0 if not sim._event_applied else 1)
            )
            raise
        if not tx.in_transaction and report.events_applied:
            self._checkpoint(report)
        report.stopped = stopped
        report.next_index = start_index + report.events_seen
        report.wall_s = time.monotonic() - run_started
        self._finalise(report)
        return report

    def _process(self, event: TraceEvent) -> bool:
        """Apply one stream event, or shed it. True when applied."""
        if self.admission is not None and not self._admit(event):
            return False
        apply_event(self.sim, event)
        self._sample(event)
        return True

    def _sample(self, event: TraceEvent) -> None:
        sim = self.sim
        cls = event.__class__
        if cls is PhaseMarkerEvent:
            return
        if cls is IdleEvent:
            sim._handle_idle(event.ticks)
            return
        note_activity(sim)
        sim.sampler.on_event(sim.store, sim.store.iostats)

    def _checkpoint_due(self) -> bool:
        svc = self.service
        if self._events_since_checkpoint >= svc.checkpoint_every_events:
            return True
        return (
            svc.max_log_records is not None
            and self.sim.redo_log.suffix_length > svc.max_log_records
        )
