"""Transactional operation layer over the object store.

The paper's evaluation assumes the simplest possible concurrency model:
"the entire database is locked while collection is performed, and logging
for recovery is not supported" (§3.2) — and defers real mechanisms to
[AFG95, KLW89, KW93]. This module provides the next step an actual ODBMS
needs: **single-client transactions with physical undo**, so that

* an application's operations can be grouped into atomic units,
* an abort physically reverts every effect — pointer restorations,
  resurrection of objects whose deaths are undone, expunging of objects
  whose creations are undone — leaving the store byte-for-byte consistent,
* the garbage collector runs only *between* transactions (the simulator
  defers triggers while a transaction is open), preserving the paper's
  whole-database-lock model without ever collecting uncommitted state.

Rollback is deliberately invisible to the rate policies: undo operations
advance neither the pointer-overwrite clock nor any partition's FGS counter
(an aborted transaction created no garbage), though they do perform real
page I/O.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.storage.heap import ObjectStore
from repro.storage.object_model import ObjectId, ObjectKind
from repro.tx.recovery import RedoLog
from repro.tx.wal import WriteAheadLog


class TransactionError(Exception):
    """Raised on misuse of the transaction API."""


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class _UndoCreate:
    oid: ObjectId


@dataclass(frozen=True)
class _UndoPointerWrite:
    src: ObjectId
    slot: str
    old_target: Optional[ObjectId]
    slot_existed: bool
    overwrote: bool
    fgs_partition: Optional[int]
    died: tuple[ObjectId, ...]


@dataclass(frozen=True)
class _UndoRoot:
    oid: ObjectId


_UndoRecord = Union[_UndoCreate, _UndoPointerWrite, _UndoRoot]


@dataclass
class Transaction:
    """One open unit of work; obtain via :meth:`TransactionManager.begin`."""

    txid: int
    state: TransactionState = TransactionState.ACTIVE
    #: ``None`` for auto-commit singletons, which keep no undo records.
    undo_log: Optional[list[_UndoRecord]] = field(default_factory=list)
    operations: int = 0

    @property
    def active(self) -> bool:
        return self.state is TransactionState.ACTIVE


class TransactionManager:
    """Single-client transactional facade over an :class:`ObjectStore`.

    All mutating operations must go through the manager while a transaction
    is open; reads may bypass it. Only one transaction may be open at a
    time (the paper's single-application model — no concurrency control is
    simulated beyond the GC exclusion).
    """

    def __init__(
        self,
        store: ObjectStore,
        wal: Optional[WriteAheadLog] = None,
        redo_log: Optional[RedoLog] = None,
    ) -> None:
        self.store = store
        #: Optional write-ahead log; when present, every operation is logged
        #: and commit/abort force the log (see :mod:`repro.tx.wal`).
        self.wal = wal
        #: Optional logical redo log for crash recovery (repro.tx.recovery).
        self.redo_log = redo_log
        #: Optional fault-injection hook, called as ``hook(site)`` at the
        #: ``tx.begin`` / ``tx.commit`` / ``tx.abort`` sites — always
        #: *before* the boundary's state change, so a crash at ``tx.commit``
        #: loses the transaction (its commit record never becomes durable).
        self.fault_hook = None
        self._next_txid = 1
        self.current: Optional[Transaction] = None
        self.committed = 0
        self.aborted = 0

    def _log(self, record_type: str) -> None:
        if self.wal is not None:
            self.wal.append(record_type)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.current is not None and self.current.active

    def _fire(self, site: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(site)

    def begin(self, txid: Optional[int] = None, *, undo: bool = True) -> Transaction:
        """Open a transaction.

        ``undo=False`` opens an auto-commit singleton: its caller commits
        it right after its one operation, so it keeps no undo records and
        cannot be aborted. (A crash inside it loses it like any uncommitted
        transaction: recovery skips it and the stream re-executes it.)
        """
        self._fire("tx.begin")
        if self.in_transaction:
            raise TransactionError(
                f"transaction {self.current.txid} is still active; "
                "nested transactions are not supported"
            )
        if txid is None:
            txid = self._next_txid
        self._next_txid = max(self._next_txid, txid + 1)
        self.current = Transaction(txid=txid, undo_log=[] if undo else None)
        self._log("begin")
        if self.redo_log is not None:
            self.redo_log.begin(txid)
        return self.current

    def commit(self, txid: Optional[int] = None) -> Transaction:
        txn = self._require_active(txid)
        # Crash point *before* the commit record: a crash here loses the
        # transaction entirely — recovery replays nothing of it.
        self._fire("tx.commit")
        # Durability order matters: the WAL force is the modelled act of
        # pushing the commit record to disk, so it must complete *before*
        # the redo log records the commit. A crash mid-force (io.write
        # fault) then leaves no commit record — recovery drops the
        # transaction and the resumed stream re-executes it exactly once,
        # instead of replaying it *and* re-executing it.
        self._log("commit")
        if self.wal is not None:
            self.wal.force()
        if self.redo_log is not None:
            self.redo_log.commit(txn.txid)
        txn.state = TransactionState.COMMITTED
        if txn.undo_log:
            txn.undo_log.clear()
        self.current = None
        self.committed += 1
        return txn

    def abort(self, txid: Optional[int] = None) -> Transaction:
        """Physically undo every operation of the active transaction."""
        txn = self._require_active(txid)
        if txn.undo_log is None:
            raise TransactionError(
                f"auto-commit transaction {txn.txid} keeps no undo log"
            )
        self._fire("tx.abort")
        for record in reversed(txn.undo_log):
            self._apply_undo(record)
            self._log("clr")  # compensation log record per undone operation
        txn.undo_log.clear()
        txn.state = TransactionState.ABORTED
        self.current = None
        self.aborted += 1
        self._log("abort")
        if self.redo_log is not None:
            self.redo_log.abort(txn.txid)
        if self.wal is not None:
            self.wal.force()
        return txn

    def _require_active(self, txid: Optional[int]) -> Transaction:
        if not self.in_transaction:
            raise TransactionError("no active transaction")
        if txid is not None and self.current.txid != txid:
            raise TransactionError(
                f"transaction id mismatch: active {self.current.txid}, got {txid}"
            )
        return self.current

    # ------------------------------------------------------------------
    # Operations (proxied to the store, with undo logging)
    # ------------------------------------------------------------------

    def create(
        self,
        size: int,
        kind: ObjectKind = ObjectKind.GENERIC,
        pointers: Optional[dict[str, Optional[ObjectId]]] = None,
        oid: Optional[ObjectId] = None,
    ) -> ObjectId:
        txn = self._require_active(None)
        new_oid = self.store.create(size=size, kind=kind, pointers=pointers, oid=oid)
        if txn.undo_log is not None:
            txn.undo_log.append(_UndoCreate(oid=new_oid))
        txn.operations += 1
        self._log("create")
        if self.redo_log is not None:
            self.redo_log.create(
                txn.txid,
                new_oid,
                size,
                kind,
                tuple((pointers or {}).items()),
            )
        return new_oid

    def write_pointer(
        self,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: Sequence[ObjectId] = (),
    ) -> None:
        txn = self._require_active(None)
        store = self.store
        objects = store.objects
        src_obj = objects.get(src)
        if src_obj is None:
            raise TransactionError(f"unknown object {src}")
        undo = txn.undo_log
        if undo is not None:
            slot_existed = slot in src_obj.pointers
            old_target = src_obj.pointers.get(slot)
            overwrote = old_target is not None
            fgs_partition = None
            if overwrote:
                placement = store.placements.get(old_target)
                if placement is not None:
                    fgs_partition = placement.partition
        # Only record deaths this write actually declares (idempotence of
        # _declare_dead means already-dead victims must not be resurrected
        # twice on undo).
        fresh_deaths = tuple(
            oid for oid in dies if oid in objects and not objects[oid].dead
        )
        store.write_pointer(src, slot, target, dies=dies)
        if undo is not None:
            undo.append(
                _UndoPointerWrite(
                    src=src,
                    slot=slot,
                    old_target=old_target,
                    slot_existed=slot_existed,
                    overwrote=overwrote,
                    fgs_partition=fgs_partition,
                    died=fresh_deaths,
                )
            )
        txn.operations += 1
        self._log("write")
        if self.redo_log is not None:
            self.redo_log.write(txn.txid, src, slot, target, fresh_deaths)

    def access(self, oid: ObjectId):
        """Reads need no undo but are offered for a uniform interface."""
        return self.store.access(oid)

    def update(self, oid: ObjectId) -> None:
        """Non-pointer updates carry no logical state in this model, so the
        undo is a no-op (the page stays dirty — rollback rewrites it)."""
        txn = self._require_active(None)
        self.store.update(oid)
        txn.operations += 1
        self._log("update")

    def register_root(self, oid: ObjectId) -> None:
        txn = self._require_active(None)
        already_root = oid in self.store.roots
        self.store.register_root(oid)
        if not already_root and txn.undo_log is not None:
            txn.undo_log.append(_UndoRoot(oid=oid))
        txn.operations += 1
        self._log("root")
        if self.redo_log is not None and not already_root:
            self.redo_log.root(txn.txid, oid)

    # ------------------------------------------------------------------
    # Undo application
    # ------------------------------------------------------------------

    def _apply_undo(self, record: _UndoRecord) -> None:
        store = self.store
        if isinstance(record, _UndoPointerWrite):
            for victim in record.died:
                store.resurrect(victim)
            store.undo_pointer_write(
                record.src, record.slot, record.old_target, record.slot_existed
            )
            # The forward write advanced the garbage-creation signals; an
            # aborted transaction must not be visible to the rate policies.
            if record.overwrote:
                store.pointer_overwrites -= 1
                if record.fgs_partition is not None:
                    partition = store.partitions[record.fgs_partition]
                    if partition.pointer_overwrites > 0:
                        partition.pointer_overwrites -= 1
            else:
                store.pointer_stores -= 1
        elif isinstance(record, _UndoCreate):
            store.expunge(record.oid)
        elif isinstance(record, _UndoRoot):
            store.roots.discard(record.oid)
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown undo record {record!r}")
