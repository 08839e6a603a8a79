"""Partition-parallel collection: speculative tracing pipelined with replay.

The serial collector runs both halves of a collection — the read-only
survivor trace and the mutating reclamation — inside the trigger's
stop-the-world window, on the replay thread. This module decouples them:

1. **Snapshot.** When the trigger's *margin* window opens (a configurable
   fraction of the interval before the due point), the scheduler predicts
   the likely victim partitions and snapshots each one's frontier — the
   conservative roots and external fix-up pages the
   :class:`~repro.gc.remembered.RememberedSetIndex` maintains incrementally
   — together with the store's trace epochs at that instant.
2. **Trace.** Workers Cheney-trace the snapshots over a read-only view of
   the heap (the flat :class:`~repro.storage.objtable.PlacementTable`
   columns and the object table) while the replay / stream-admission loop
   keeps running. With ``workers > 1`` the traces fan out to threads; with
   ``workers == 1`` they run inline at the pump point. Either way the trace
   happens *outside* the collection pause.
3. **Validate + ordered apply.** When the trigger actually fires, the
   scheduler joins any outstanding workers (apply never races a trace),
   re-checks the victim's trace epochs, and applies reclamation through
   the exact serial sequence (:meth:`~repro.gc.collector.CopyingCollector.
   apply`). A stale snapshot — any frontier- or graph-affecting mutation
   bumped the partition's epoch, or any compaction bumped the global
   epoch — is discarded and the trace re-runs inline, which *is* the
   serial path.

Because a speculative trace is only ever used when the epochs prove it
equals what an inline trace would compute, results are **identical to the
serial collector at any worker count**: pickle-equal summaries, identical
iostats, identical crash/recovery drills. Worker count and margin affect
wall-clock only — which is why ``collection=`` / ``gc_workers=`` are
excluded from result-cache fingerprints.

Conservatism is unchanged from the serial collector: a remembered-in
reference is a root even when its source is garbage, so cross-partition
cycles still survive until :meth:`~repro.gc.collector.CopyingCollector.
collect_global` — speculation neither widens nor narrows the frontier.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.gc.collector import CollectionResult, CopyingCollector
from repro.gc.selection import (
    MostGarbageOracleSelection,
    PartitionSelectionPolicy,
    RandomSelection,
    RoundRobinSelection,
    UpdatedPointerSelection,
)
from repro.storage.heap import ObjectStore
from repro.storage.partition import PartitionId
from repro.storage.traversal import breadth_first_order

if TYPE_CHECKING:
    from repro.storage.buffer import PageId
    from repro.storage.heap import CompactionPlan

#: Valid ``collection`` modes: ``"serial"`` runs trace + apply inside the
#: trigger window on the replay thread; ``"parallel"`` pre-traces likely
#: victims speculatively during the margin window and validates at apply.
#: Both produce identical results — the serial path is the A/B reference.
COLLECTION_MODES = ("serial", "parallel")

#: Default margin: the fraction of the trigger interval before the due
#: point at which speculative tracing starts. Smaller margins leave less
#: time for the victim to be mutated (higher speculation hit rates) but
#: less overlap; the value only shifts wall-clock, never results.
DEFAULT_GC_MARGIN = 0.25


def peek_selection(
    selection: PartitionSelectionPolicy, store: ObjectStore
) -> Optional[PartitionId]:
    """Predict ``selection.select(store)`` without mutating policy state.

    The stateless built-ins are probed directly; the stateful ones have
    their state saved and restored around the probe (``RoundRobin``'s
    cursor, ``Random``'s generator state — consuming entropy here would
    desynchronise the real draw and change results). Unknown policy
    subclasses return ``None``: no speculation, the collection simply runs
    the serial path inline.
    """
    kind = type(selection)
    if kind is UpdatedPointerSelection or kind is MostGarbageOracleSelection:
        return selection.select(store)
    if kind is RoundRobinSelection:
        saved = selection._last
        try:
            return selection.select(store)
        finally:
            selection._last = saved
    if kind is RandomSelection:
        state = selection._rng.getstate()
        try:
            return selection.select(store)
        finally:
            selection._rng.setstate(state)
    return None


class _Speculation:
    """One partition's frontier snapshot plus its (eventual) trace result."""

    __slots__ = (
        "pid",
        "partition_epoch",
        "compaction_epoch",
        "roots",
        "fixup_pages",
        "survivors",
        "plan",
        "failed",
        "thread",
    )

    def __init__(
        self,
        pid: PartitionId,
        partition_epoch: int,
        compaction_epoch: int,
        roots: list[int],
        fixup_pages: "set[PageId]",
    ) -> None:
        self.pid = pid
        self.partition_epoch = partition_epoch
        self.compaction_epoch = compaction_epoch
        self.roots = roots
        self.fixup_pages = fixup_pages
        self.survivors: Optional[list[int]] = None
        self.plan: "Optional[CompactionPlan]" = None
        self.failed = False
        self.thread: Optional[threading.Thread] = None


class ParallelCollectionScheduler:
    """Pipelines the read-only half of collections with replay intake.

    Args:
        store: The heap being collected.
        collector: The serial collector whose ``prepare``/``apply`` split
            this scheduler drives; apply order (and therefore every
            result) is exactly the serial trigger order.
        selection: The run's partition-selection policy, probed
            non-mutatingly to predict victims.
        workers: Fan-out width. ``1`` traces inline at the pump point;
            ``N > 1`` snapshots up to N candidate partitions and traces
            them on N ephemeral threads. Results are identical at any
            value (speculation is validated before use); only wall-clock
            differs.
        margin: Fraction of the trigger interval before the due point at
            which the simulator pumps speculative traces.
    """

    def __init__(
        self,
        store: ObjectStore,
        collector: CopyingCollector,
        selection: PartitionSelectionPolicy,
        workers: int = 1,
        margin: float = DEFAULT_GC_MARGIN,
    ) -> None:
        if workers < 1:
            raise ValueError(f"gc_workers must be >= 1, got {workers}")
        if not 0.0 <= margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        self.store = store
        self.collector = collector
        self.selection = selection
        self.workers = workers
        self.margin = margin
        self._pending: dict[PartitionId, _Speculation] = {}
        #: Observability counters (telemetry-only — never part of summaries
        #: or reports). Snapshot validity depends on the store's epoch
        #: counters, not thread timing, so these are deterministic at
        #: ``workers == 1``; at higher counts a worker's trace can fail
        #: from an unrelated concurrent dict resize, turning a would-be
        #: hit into a stale — results are unaffected (the fallback *is*
        #: the serial path) but hit/stale splits may vary run to run.
        self.pumps = 0
        self.speculative_traces = 0
        self.speculation_hits = 0
        self.speculation_stale = 0
        self.speculation_misses = 0

    # ------------------------------------------------------------------
    # Pump: speculative snapshot + trace (read-only)
    # ------------------------------------------------------------------

    def pump(self) -> None:
        """Speculatively trace up to ``workers`` likely victim partitions.

        Called by the simulator when the margin window opens (and by the
        service between admitted events). Touches no mutable store state —
        a pump can never change what the run computes.
        """
        self.pumps += 1
        # Threads spawned by the *previous* pump have had the inter-pump
        # mutator window to run; joining them here keeps every worker's
        # lifetime inside the margin window (off-pause) rather than letting
        # it compete with the collection pause for the interpreter.
        for pending in self._pending.values():
            if pending.thread is not None:
                pending.thread.join()
                pending.thread = None
        victims = self.predict_victims()
        for index, pid in enumerate(victims):
            current = self._pending.get(pid)
            if current is not None:
                if self._valid(current):
                    continue
                if index > 0:
                    # Stale *extra* snapshots are not refreshed per tick —
                    # they are breadth insurance against a prediction miss,
                    # and validation discards them at apply anyway. Only
                    # the primary earns the per-tick re-trace.
                    continue
            spec = self._snapshot(pid)
            self._pending[pid] = spec
            self.speculative_traces += 1
            if index == 0:
                # The best prediction is traced inline at the pump point —
                # still outside the collection pause, and immune to worker
                # scheduling (on a GIL-bound single core, threads may not
                # run before the trigger fires).
                self._trace_into(spec)
            else:
                spec.thread = threading.Thread(
                    target=self._trace_into,
                    args=(spec,),
                    name=f"gc-trace-p{spec.pid}",
                    daemon=True,
                )
                spec.thread.start()

    def predict_victims(self) -> list[PartitionId]:
        """Up to ``workers`` non-overlapping candidate partitions.

        The selection policy's own (non-mutating) prediction first, then
        the next most-overwritten collectable partitions — the same signal
        UPDATEDPOINTER ranks by — as speculative breadth against
        prediction misses.
        """
        primary = peek_selection(self.selection, self.store)
        if primary is None:
            return []
        victims = [primary]
        extra = self.workers - 1
        if extra > 0:
            partitions = self.store.partitions
            others = [
                p.pid
                for p in partitions
                if p.residents and p.pid != primary
            ]
            others.sort(
                key=lambda pid: (-partitions[pid].pointer_overwrites, pid)
            )
            victims.extend(others[:extra])
        return victims

    # ------------------------------------------------------------------
    # Apply: validate + deterministic serial-order reclamation
    # ------------------------------------------------------------------

    def collect(self, pid: PartitionId) -> CollectionResult:
        """Collect ``pid``, reusing a speculative trace when still exact.

        Joins every outstanding worker first (a trace must never race the
        compaction about to run), validates the victim's snapshot against
        the store's current epochs, and falls back to an inline
        :meth:`~repro.gc.collector.CopyingCollector.prepare` — the serial
        path — when the snapshot is stale or absent. Reclamation is then
        applied through the serial ``apply`` sequence, so the result is
        byte-identical to ``CopyingCollector.collect(pid)``.
        """
        spec = self._pending.pop(pid, None)
        # Compaction bumps the global epoch, invalidating every other
        # outstanding snapshot — drop them without joining their workers.
        # Orphaned traces only *read* heap structures and write into spec
        # objects nobody will look at again: a concurrent mutation during
        # their reads raises (caught, marks the orphan failed) but cannot
        # corrupt interpreter state or influence any result.
        self._pending.clear()
        if spec is not None and spec.thread is not None:
            spec.thread.join()

        if spec is not None and self._valid(spec) and spec.survivors is not None:
            self.speculation_hits += 1
            return self.collector.apply(
                pid, spec.survivors, spec.fixup_pages, plan=spec.plan
            )
        if spec is not None:
            self.speculation_stale += 1
        else:
            self.speculation_misses += 1
        survivors, fixup_pages = self.collector.prepare(pid)
        return self.collector.apply(pid, survivors, fixup_pages)

    def stats(self) -> dict[str, int]:
        """Speculation counters for telemetry (`gc.parallel.*`)."""
        return {
            "pumps": self.pumps,
            "speculative_traces": self.speculative_traces,
            "speculation_hits": self.speculation_hits,
            "speculation_stale": self.speculation_stale,
            "speculation_misses": self.speculation_misses,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _snapshot(self, pid: PartitionId) -> _Speculation:
        """Capture the frontier and epoch pair on the mutator thread.

        Runs at a quiescent point (between events), so reading the
        remembered-set index and placement columns is safe. Roots are
        sorted here — the same stable order the serial trace enqueues.
        """
        store = self.store
        return _Speculation(
            pid=pid,
            partition_epoch=store.trace_epochs[pid],
            compaction_epoch=store.compaction_epoch,
            roots=sorted(store.partition_roots(pid)),
            fixup_pages=store.external_source_pages(pid),
        )

    def _trace_into(self, spec: _Speculation) -> None:
        """Cheney-trace one snapshot; runs on a worker thread or inline.

        Reads live heap structures without copying them: if any relevant
        structure mutates while the trace runs, the partition's epoch has
        been bumped and the result is discarded at validation — so a torn
        read can only waste the trace, never corrupt a collection. Raised
        exceptions (e.g. a dict resized mid-iteration) mark the snapshot
        failed, which validation treats as stale.
        """
        store = self.store
        try:
            survivors = breadth_first_order(
                store.objects,
                spec.roots,
                within=store.partitions[spec.pid].residents,
            )
            # Also precompute the compaction layout — the pure half of the
            # reclamation the pause would otherwise re-derive. Guarded by
            # the same epoch pair as the trace.
            spec.plan = store.plan_compaction(spec.pid, survivors)
            spec.survivors = survivors
        except Exception:
            spec.failed = True

    def _valid(self, spec: _Speculation) -> bool:
        return (
            not spec.failed
            and spec.compaction_epoch == self.store.compaction_epoch
            and spec.partition_epoch == self.store.trace_epochs[spec.pid]
        )
