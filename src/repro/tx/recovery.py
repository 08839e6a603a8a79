"""Crash recovery: rebuild a store from a logical redo log.

The write-ahead log in :mod:`repro.tx.wal` models logging *cost*; this
module adds the recovery semantics on top — a logical redo log that can
reconstruct the committed state of a database after a crash, in the spirit
of [KW93]'s atomic stable heap:

* :class:`RedoLog` captures full logical records of every transactional
  operation (begin / create / write / root / commit / abort);
* :func:`recover` replays the log into a fresh store, applying only the
  operations of transactions whose commit record made it to the log —
  a transaction with no commit record (in-flight at the crash, or aborted)
  contributes nothing, exactly like an abort;
* recovered stores are bit-compatible with a reference store that executed
  only the committed transactions (the tests assert byte-level equality of
  the logical state).

Garbage-collection state is *not* logged: a recovered database simply
starts with all garbage uncollected and its FGS counters reset, which is
what a real system reconstructs lazily. The oracle accounting is rebuilt
from the replayed ``dies`` annotations, so the policies work immediately
after recovery.

Long-running service mode adds **checkpoints** on top: a
:class:`CheckpointSnapshot` captures the committed logical state at a
quiescent point (no transaction open), :meth:`RedoLog.install_checkpoint`
truncates the log down to that one record, and :func:`recover` restores
the snapshot directly and replays only the suffix logged since — bounded
recovery work for unbounded streams. Unlike log replay, a checkpoint
preserves the store's dead/collected split and its policy clocks, so a
post-recovery service continues with the same garbage accounting the
pre-crash process had.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectId, ObjectKind


@dataclass(frozen=True)
class CheckpointSnapshot:
    """The committed logical state of a store at one quiescent point.

    Captured by :func:`build_checkpoint` strictly *between* transactions, so
    the snapshot never contains uncommitted effects. Fields mirror exactly
    what :func:`recover` needs to rebuild an equivalent store:

    * ``objects`` — every stored object (live **and** dead-uncollected; the
      suffix's ``dies`` annotations and the policies' garbage accounting
      both assume dead objects still occupy the heap until collected);
    * ``pointers`` / ``roots`` — the full reachability graph;
    * ``unlinked`` — the allocation-pin set (created-but-unreferenced
      objects the collector must treat as roots);
    * the accounting clocks, so rate policies resume with continuous
      signals instead of a cold reset.

    ``event_index`` records the absolute stream position the checkpoint
    covers: a resumed service continues the event stream from here.
    """

    #: Absolute index of the next stream event after the checkpoint.
    event_index: int
    #: (oid, size, kind value, dead) for every object in the store.
    objects: tuple[tuple[ObjectId, int, str, bool], ...]
    #: (src, slot, target) for every pointer slot (target may be None).
    pointers: tuple[tuple[ObjectId, str, Optional[ObjectId]], ...]
    roots: tuple[ObjectId, ...]
    unlinked: tuple[ObjectId, ...]
    #: GarbageAccounts continuity: (total_generated, total_collected,
    #: undeclared).
    garbage: tuple[int, int, int] = (0, 0, 0)
    pointer_overwrites: int = 0
    pointer_stores: int = 0
    bytes_allocated_total: int = 0

    @property
    def estimated_bytes(self) -> int:
        """Modelled serialized size, for WAL cost accounting."""
        return (
            64
            + 48 * len(self.objects)
            + 24 * len(self.pointers)
            + 8 * (len(self.roots) + len(self.unlinked))
        )


def build_checkpoint(store: ObjectStore, event_index: int) -> CheckpointSnapshot:
    """Snapshot ``store``'s committed logical state at a quiescent point.

    The caller must guarantee no transaction is open (the service only
    checkpoints between transactions); everything in the store is then
    committed by construction.
    """
    objects = tuple(
        (oid, obj.size, obj.kind.value, obj.dead)
        for oid, obj in sorted(store.objects.items())
    )
    pointers = tuple(
        (oid, slot, target)
        for oid, obj in sorted(store.objects.items())
        for slot, target in sorted(obj.pointers.items())
    )
    return CheckpointSnapshot(
        event_index=event_index,
        objects=objects,
        pointers=pointers,
        roots=tuple(sorted(store.roots)),
        unlinked=tuple(sorted(store.unlinked)),
        garbage=(
            store.garbage.total_generated,
            store.garbage.total_collected,
            store.garbage.undeclared,
        ),
        pointer_overwrites=store.pointer_overwrites,
        pointer_stores=store.pointer_stores,
        bytes_allocated_total=store.bytes_allocated_total,
    )


class RedoRecord(NamedTuple):
    """One logical log record.

    ``kind`` is one of begin/commit/abort/create/write/root/checkpoint; the
    payload fields used depend on the kind. A named tuple rather than a
    frozen dataclass: records are built once per logged operation (three
    per auto-committed event), and tuple construction costs a fifth to a
    third as much while staying immutable, equality-comparable and
    picklable.
    """

    kind: str
    txid: int
    oid: Optional[ObjectId] = None
    size: Optional[int] = None
    object_kind: Optional[ObjectKind] = None
    pointers: tuple[tuple[str, Optional[ObjectId]], ...] = ()
    slot: Optional[str] = None
    target: Optional[ObjectId] = None
    dies: tuple[ObjectId, ...] = ()
    #: Payload of ``kind="checkpoint"`` records.
    checkpoint: Optional[CheckpointSnapshot] = None


@dataclass
class RedoLog:
    """An append-only logical log of transactional operations.

    ``appended_total`` / ``truncated_total`` count records over the log's
    whole lifetime (they survive checkpoint truncation), so tests and soak
    drills can assert that post-checkpoint recovery replayed only the
    suffix logged since the last checkpoint.

    The log remembers where its last checkpoint record sits, so
    :attr:`suffix_length` is O(1). Add checkpoint records through
    :meth:`append` or :meth:`install_checkpoint`; other records may also be
    appended to ``records`` directly (the batched interpreter does).
    """

    records: list[RedoRecord] = field(default_factory=list)
    #: Lifetime records appended (monotone; unaffected by truncation).
    appended_total: int = 0
    #: Lifetime records dropped by truncation (checkpoints + uncommitted).
    truncated_total: int = 0
    #: Lifetime checkpoints installed (survives crash/recover cycles that
    #: share one log, so soak drills can count checkpoints drill-wide).
    checkpoints_installed: int = 0
    #: Index just past the last checkpoint record (0 when there is none).
    _suffix_start: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._locate_checkpoint()

    def _locate_checkpoint(self) -> None:
        records = self.records
        for index in range(len(records) - 1, -1, -1):
            if records[index].kind == "checkpoint":
                self._suffix_start = index + 1
                return
        self._suffix_start = 0

    def append(self, record: RedoRecord) -> None:
        self.records.append(record)
        self.appended_total += 1
        if record.kind == "checkpoint":
            self._suffix_start = len(self.records)

    def install_checkpoint(self, snapshot: CheckpointSnapshot) -> int:
        """Truncate the log down to one checkpoint record.

        Everything logged so far is subsumed by the snapshot (the caller
        checkpoints only at quiescent points, so there are no in-flight
        records to preserve). Returns the number of records dropped.
        """
        dropped = len(self.records)
        self.truncated_total += dropped
        self.records = []
        self.append(RedoRecord("checkpoint", 0, checkpoint=snapshot))
        self.checkpoints_installed += 1
        return dropped

    def last_checkpoint(self) -> Optional[CheckpointSnapshot]:
        """The most recent installed checkpoint, if any."""
        if self._suffix_start:
            return self.records[self._suffix_start - 1].checkpoint
        return None

    @property
    def suffix_length(self) -> int:
        """Records logged since the last checkpoint (whole log if none)."""
        return len(self.records) - self._suffix_start

    # Convenience constructors used by LoggingTransactionManager.

    def begin(self, txid: int) -> None:
        self.append(RedoRecord("begin", txid))

    def commit(self, txid: int) -> None:
        self.append(RedoRecord("commit", txid))

    def abort(self, txid: int) -> None:
        self.append(RedoRecord("abort", txid))

    def create(
        self,
        txid: int,
        oid: ObjectId,
        size: int,
        object_kind: ObjectKind,
        pointers: tuple[tuple[str, Optional[ObjectId]], ...],
    ) -> None:
        self.append(
            RedoRecord("create", txid, oid, size, object_kind, pointers)
        )

    def write(
        self,
        txid: int,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: Sequence[ObjectId],
    ) -> None:
        self.append(
            RedoRecord("write", txid, src, None, None, (), slot, target, tuple(dies))
        )

    def root(self, txid: int, oid: ObjectId) -> None:
        self.append(RedoRecord("root", txid, oid))

    def committed_txids(self) -> set[int]:
        return {r.txid for r in self.records if r.kind == "commit"}

    def truncate_uncommitted(self) -> int:
        """Drop records of transactions that neither committed nor aborted.

        Used by crash–recover–continue drills before resuming a trace: the
        transaction in flight at the crash will be *re-executed* under the
        same txid, so its orphaned pre-crash records must not linger in the
        log (recovery would otherwise replay both the lost attempt and the
        re-execution). Returns the number of records dropped.
        """
        resolved = {
            r.txid for r in self.records if r.kind in ("commit", "abort")
        }
        before = len(self.records)
        self.records = [
            r
            for r in self.records
            if r.kind == "checkpoint" or r.txid in resolved
        ]
        dropped = before - len(self.records)
        self.truncated_total += dropped
        self._locate_checkpoint()
        return dropped


@dataclass(frozen=True)
class RecoveryInfo:
    """What one :func:`recover_with_info` call actually did."""

    #: Log records inspected after the last checkpoint (replayed suffix).
    records_replayed: int
    #: True when a checkpoint snapshot seeded the store.
    from_checkpoint: bool
    #: The checkpoint's stream position (0 without a checkpoint).
    checkpoint_event_index: int
    #: Objects in the recovered store.
    objects: int


def _restore_checkpoint(
    snapshot: CheckpointSnapshot, store_config: Optional[StoreConfig]
) -> ObjectStore:
    """Rebuild a store equivalent to the one ``snapshot`` captured.

    Objects are created in oid order with empty pointer maps first (so no
    forward reference can fail validation), then the pointer graph is wired
    through ``write_pointer`` — which maintains the remembered-set index at
    every edge — then roots, deaths and allocation pins are reconciled and
    the accounting clocks restored verbatim. Physical placement may differ
    from the original store (recovery re-places first-fit), which is fine:
    the recovery contract covers logical state, and every consumer of
    placement (collector, selection) reads it fresh from the store.
    """
    store = ObjectStore(store_config)
    for oid, size, kind_value, _dead in snapshot.objects:
        store.create(size=size, kind=ObjectKind(kind_value), oid=oid)
    for src, slot, target in snapshot.pointers:
        store.write_pointer(src, slot, target)
    for oid in snapshot.roots:
        store.register_root(oid)
    for oid, _size, _kind, dead in snapshot.objects:
        if dead:
            store.declare_dead(oid)
    pinned = set(snapshot.unlinked)
    for oid in sorted(store.unlinked - pinned):
        store.release_pin(oid)
    # Replaying pointer wiring above advanced the clocks and (for dead
    # objects) the garbage totals; overwrite all of them with the captured
    # values so the policies see continuous signals, not replay artefacts.
    store.garbage.total_generated = snapshot.garbage[0]
    store.garbage.total_collected = snapshot.garbage[1]
    store.garbage.undeclared = snapshot.garbage[2]
    store.pointer_overwrites = snapshot.pointer_overwrites
    store.pointer_stores = snapshot.pointer_stores
    store.bytes_allocated_total = snapshot.bytes_allocated_total
    return store


def recover_with_info(
    log: RedoLog, store_config: Optional[StoreConfig] = None
) -> tuple[ObjectStore, RecoveryInfo]:
    """Recover a store from ``log`` and report how much work it took.

    With a checkpoint record in the log, the snapshot seeds the store and
    only the records *after* the last checkpoint are replayed — bounded
    recovery for unbounded streams. Without one this is full-log replay.
    Records of transactions without a commit record — aborted or in flight
    at the crash — are skipped entirely. Replay order is log order, which
    is execution order for a single-client system, so every pointer target
    already exists when it is written.
    """
    records = log.records
    start = 0
    from_checkpoint = False
    checkpoint_event_index = 0
    for index in range(len(records) - 1, -1, -1):
        if records[index].kind == "checkpoint":
            start = index + 1
            from_checkpoint = True
            snapshot = records[index].checkpoint
            assert snapshot is not None
            checkpoint_event_index = snapshot.event_index
            break
    if from_checkpoint:
        store = _restore_checkpoint(snapshot, store_config)
    else:
        store = ObjectStore(store_config)
    suffix = records[start:]
    # Commit-scoped sequential replay: operations buffer under their
    # transaction's *current* begin/commit bracket and apply at the commit
    # record. A transaction id may legitimately recur in one log (each
    # crash/resume cycle restarts the auto-commit txid counter), so a
    # whole-suffix committed-txid set would wrongly replay an in-flight
    # transaction whose id an earlier, committed incarnation used; the
    # bracket scoping keeps each incarnation separate. Transactions still
    # open at the end of the log — in flight at the crash — are dropped.
    open_tx: dict[int, list[RedoRecord]] = {}
    for record in suffix:
        kind = record.kind
        if kind == "checkpoint":
            continue
        if kind == "begin":
            open_tx[record.txid] = []
        elif kind == "abort":
            open_tx.pop(record.txid, None)
        elif kind == "commit":
            for op in open_tx.pop(record.txid, ()):
                if op.kind == "create":
                    store.create(
                        size=op.size,
                        kind=op.object_kind or ObjectKind.GENERIC,
                        pointers=dict(op.pointers),
                        oid=op.oid,
                    )
                elif op.kind == "write":
                    store.write_pointer(
                        op.oid, op.slot, op.target, dies=op.dies
                    )
                elif op.kind == "root":
                    store.register_root(op.oid)
        else:
            bucket = open_tx.get(record.txid)
            if bucket is not None:
                bucket.append(record)
    info = RecoveryInfo(
        records_replayed=len(suffix),
        from_checkpoint=from_checkpoint,
        checkpoint_event_index=checkpoint_event_index,
        objects=len(store.objects),
    )
    return store, info


def recover(log: RedoLog, store_config: Optional[StoreConfig] = None) -> ObjectStore:
    """Recover a store from ``log`` (see :func:`recover_with_info`)."""
    store, _ = recover_with_info(log, store_config)
    return store
