"""Compiled traces: columnar event streams that replay and load fast.

The paper's entire evaluation is trace-driven replay — the same OO7 trace
is replayed once per policy setting per seed. Regenerating the trace from
the OO7 builder for every policy cell wastes most of a sweep's wall time,
and parsing the line-JSON trace files of :mod:`repro.workload.tracefile`
is not much better. This module provides the capture-once / replay-many
representation the original system used ([CWZ93]-style trace files):

* :func:`compile_trace` materialises any event stream into a
  :class:`CompiledTrace` — a compact columnar form (typed ``array`` columns
  for opcodes / object ids / sizes, one interned string table for slot
  names and phase names, flattened pointer and death lists with offset
  tables);
* replaying a compiled trace yields exactly the same
  :class:`~repro.events.TraceEvent` dataclasses the generator produced, so
  simulations driven from a compiled trace are **byte-identical** to
  generator-driven runs;
* :meth:`CompiledTrace.save` / :meth:`CompiledTrace.load` give the trace a
  versioned, checksummed binary on-disk format that loads orders of
  magnitude faster than re-running the OO7 builder.

The representation is immutable once compiled, so one compiled trace can
drive any number of concurrent or sequential simulation runs
(:meth:`CompiledTrace.materialize` memoises the decoded event tuple for
repeat replays in the same process).
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

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
    TraceEvent,
    UpdateEvent,
)
from repro.storage.object_model import ObjectKind

#: Bump when the columnar layout or the binary encoding changes; loaders
#: reject other versions and trace caches key on it.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RPTC"
#: ``None`` pointer targets are encoded as the most negative int64 — a value
#: no generator can produce as a real object id.
_NONE = -(2**63)

# Opcodes (the ``ops`` column).
_OP_CREATE = 0
_OP_ACCESS = 1
_OP_UPDATE = 2
_OP_WRITE = 3
_OP_ROOT = 4
_OP_PHASE = 5
_OP_IDLE = 6
_OP_BEGIN = 7
_OP_COMMIT = 8
_OP_ABORT = 9


class CompiledTraceError(Exception):
    """Raised when a compiled trace file is malformed, truncated or of an
    unsupported format version."""


class CompiledTrace:
    """A columnar, immutable, replayable representation of one trace.

    Column layout (all ``array`` typecode ``'q'`` unless noted):

    * ``ops`` (``'b'``)   — one opcode per event;
    * ``arg0``            — primary operand: oid / src / txid / ticks /
      string index (phase markers);
    * ``arg1``            — secondary operand: size (creates) or pointer
      target (writes, ``_NONE`` encodes null);
    * ``strings``         — one interned table for slot names, phase names
      and kind tags;
    * creates: ``create_kind`` (string index) plus a pointer-list
      offset table ``create_ptr_start`` over the flattened
      ``ptr_slots`` / ``ptr_targets`` columns;
    * writes: ``write_slot`` (string index) plus a death-list offset table
      ``write_dies_start`` over the flattened ``dies`` column.

    Construct via :func:`compile_trace` or :meth:`load`.
    """

    __slots__ = (
        "ops", "arg0", "arg1", "strings",
        "create_kind", "create_ptr_start", "ptr_slots", "ptr_targets",
        "write_slot", "write_dies_start", "dies",
        "_materialized", "_batch_cache",
    )

    def __init__(
        self,
        ops: array,
        arg0: array,
        arg1: array,
        strings: list[str],
        create_kind: array,
        create_ptr_start: array,
        ptr_slots: array,
        ptr_targets: array,
        write_slot: array,
        write_dies_start: array,
        dies: array,
    ) -> None:
        self.ops = ops
        self.arg0 = arg0
        self.arg1 = arg1
        self.strings = strings
        self.create_kind = create_kind
        self.create_ptr_start = create_ptr_start
        self.ptr_slots = ptr_slots
        self.ptr_targets = ptr_targets
        self.write_slot = write_slot
        self.write_dies_start = write_dies_start
        self.dies = dies
        self._materialized: Optional[tuple[TraceEvent, ...]] = None
        # Memoised column views + run index for the batched interpreter
        # (repro.sim.batch); built on first batched replay of this trace.
        self._batch_cache = None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceEvent]:
        if self._materialized is not None:
            return iter(self._materialized)
        return self.replay()

    def materialize(self) -> tuple[TraceEvent, ...]:
        """Decode the whole trace once and memoise the event tuple.

        Events are frozen dataclasses, so sharing one decoded tuple across
        any number of replays in the same process is safe; subsequent
        iteration skips decoding entirely.
        """
        if self._materialized is None:
            self._materialized = tuple(self.replay())
        return self._materialized

    def replay(self, start_index: int = 0) -> Iterator[TraceEvent]:
        """Stream the events back, optionally skipping a prefix.

        ``start_index`` positions the replay without decoding the skipped
        events (crash-recovery drills resume mid-trace); indices stay
        absolute with respect to the original stream.
        """
        ops = self.ops
        arg0 = self.arg0
        arg1 = self.arg1
        strings = self.strings
        create_kind = self.create_kind
        create_ptr_start = self.create_ptr_start
        ptr_slots = self.ptr_slots
        ptr_targets = self.ptr_targets
        write_slot = self.write_slot
        write_dies_start = self.write_dies_start
        dies = self.dies

        if start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {start_index}")
        if start_index:
            prefix = ops[:start_index]
            if not isinstance(prefix, array):
                # Zero-copy traces hold memoryviews, which slice to
                # memoryviews and lack ``count``.
                prefix = array("b", prefix.tobytes())
            ci = prefix.count(_OP_CREATE)
            wi = prefix.count(_OP_WRITE)
        else:
            ci = wi = 0

        # Decode ObjectKind values once per distinct string index.
        kinds: dict[int, ObjectKind] = {}
        none = _NONE

        for i in range(start_index, len(ops)):
            op = ops[i]
            a = arg0[i]
            if op == _OP_ACCESS:
                yield AccessEvent(oid=a)
            elif op == _OP_WRITE:
                target = arg1[i]
                lo = write_dies_start[wi]
                hi = write_dies_start[wi + 1]
                yield PointerWriteEvent(
                    src=a,
                    slot=strings[write_slot[wi]],
                    target=None if target == none else target,
                    dies=tuple(dies[lo:hi]),
                )
                wi += 1
            elif op == _OP_CREATE:
                ki = create_kind[ci]
                kind = kinds.get(ki)
                if kind is None:
                    kind = kinds.setdefault(ki, ObjectKind(strings[ki]))
                lo = create_ptr_start[ci]
                hi = create_ptr_start[ci + 1]
                yield CreateEvent(
                    oid=a,
                    size=arg1[i],
                    kind=kind,
                    pointers=tuple(
                        (
                            strings[ptr_slots[j]],
                            None if ptr_targets[j] == none else ptr_targets[j],
                        )
                        for j in range(lo, hi)
                    ),
                )
                ci += 1
            elif op == _OP_UPDATE:
                yield UpdateEvent(oid=a)
            elif op == _OP_ROOT:
                yield RootEvent(oid=a)
            elif op == _OP_PHASE:
                yield PhaseMarkerEvent(name=strings[a])
            elif op == _OP_IDLE:
                yield IdleEvent(ticks=a)
            elif op == _OP_BEGIN:
                yield BeginTransactionEvent(txid=a)
            elif op == _OP_COMMIT:
                yield CommitTransactionEvent(txid=a)
            elif op == _OP_ABORT:
                yield AbortTransactionEvent(txid=a)
            else:  # pragma: no cover - compile_trace never emits other ops
                raise CompiledTraceError(f"unknown opcode {op} at event {i}")

    # ------------------------------------------------------------------
    # Binary on-disk format
    # ------------------------------------------------------------------
    #
    # Layout (all integers little-endian):
    #
    #   magic "RPTC" | u16 version | u32 crc32-of-body | u64 body-length
    #   body:
    #     u32 n_strings, then per string: u32 utf8-length + bytes
    #     10 columns, each: u8 typecode-ord + u64 byte-length + raw items
    #
    # The CRC makes torn or truncated writes detectable; loaders raise
    # CompiledTraceError (callers such as TraceCache treat that as a miss).

    _COLUMNS = (
        "ops", "arg0", "arg1",
        "create_kind", "create_ptr_start", "ptr_slots", "ptr_targets",
        "write_slot", "write_dies_start", "dies",
    )

    def save(self, target: Union[str, Path, IO[bytes]]) -> None:
        """Write the trace to its versioned binary format."""
        if isinstance(target, (str, Path)):
            with open(target, "wb") as handle:
                self.save(handle)
            return
        body = bytearray()
        body += struct.pack("<I", len(self.strings))
        for text in self.strings:
            raw = text.encode("utf-8")
            body += struct.pack("<I", len(raw))
            body += raw
        for name in self._COLUMNS:
            column = getattr(self, name)
            # Zero-copy traces hold memoryviews (``format``) rather than
            # arrays (``typecode``); both serialise identically.
            typecode = getattr(column, "typecode", None) or column.format
            if sys.byteorder != "little":  # pragma: no cover - exotic hosts
                column = array(typecode, column)
                column.byteswap()
            raw = column.tobytes()
            body += struct.pack("<BQ", ord(typecode), len(raw))
            body += raw
        target.write(_MAGIC)
        target.write(
            struct.pack(
                "<HIQ", TRACE_FORMAT_VERSION, zlib.crc32(bytes(body)), len(body)
            )
        )
        target.write(bytes(body))

    @classmethod
    def load(cls, source: Union[str, Path, IO[bytes]]) -> "CompiledTrace":
        """Read a trace back; raises :class:`CompiledTraceError` on any
        malformed, truncated, corrupt or version-mismatched input."""
        if isinstance(source, (str, Path)):
            with open(source, "rb") as handle:
                return cls.load(handle)
        return cls.from_bytes(source.read())

    @classmethod
    def from_bytes(
        cls,
        data: Union[bytes, bytearray, memoryview],
        *,
        verify: bool = True,
        zero_copy: bool = False,
    ) -> "CompiledTrace":
        """Decode a trace from an in-memory buffer.

        Args:
            data: The full binary encoding (:meth:`save`'s output). Trailing
                bytes beyond the declared body length are tolerated —
                shared-memory segments are page-size-rounded, so a mapped
                buffer is usually slightly longer than the trace.
            verify: Check the body CRC. Publishers validate before sharing a
                segment, so workers attaching to one may skip the extra pass.
            zero_copy: Build the numeric columns as ``memoryview`` casts
                into ``data`` instead of copying into fresh ``array``
                objects — the shared-memory handoff path, where every worker
                reads one mapped copy of the columns. The caller must keep
                ``data``'s buffer alive for the lifetime of the trace.
                (Big-endian hosts fall back to copying: the on-disk format
                is little-endian and a cast cannot byteswap.)
        """
        view = memoryview(data)
        header_size = len(_MAGIC) + struct.calcsize("<HIQ")
        if len(view) < header_size:
            raise CompiledTraceError("truncated compiled-trace header")
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise CompiledTraceError("not a compiled trace (bad magic)")
        version, crc, body_len = struct.unpack_from("<HIQ", view, len(_MAGIC))
        if version != TRACE_FORMAT_VERSION:
            raise CompiledTraceError(
                f"unsupported compiled-trace format version {version} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        if len(view) - header_size < body_len:
            raise CompiledTraceError("compiled trace body is truncated or corrupt")
        body = view[header_size : header_size + body_len]
        if verify and zlib.crc32(body) != crc:
            raise CompiledTraceError("compiled trace body is truncated or corrupt")
        if zero_copy and sys.byteorder != "little":  # pragma: no cover
            zero_copy = False

        offset = 0

        def take(count: int) -> memoryview:
            nonlocal offset
            chunk = body[offset : offset + count]
            if len(chunk) != count:
                raise CompiledTraceError("compiled trace body ended unexpectedly")
            offset += count
            return chunk

        (n_strings,) = struct.unpack("<I", take(4))
        strings = []
        for _ in range(n_strings):
            (length,) = struct.unpack("<I", take(4))
            strings.append(bytes(take(length)).decode("utf-8"))
        columns = []
        for name in cls._COLUMNS:
            typecode_ord, raw_len = struct.unpack("<BQ", bytes(take(9)))
            typecode = chr(typecode_ord)
            itemsize = array(typecode).itemsize
            raw = take(raw_len)
            if raw_len % itemsize:
                raise CompiledTraceError(
                    f"column {name!r} has a partial trailing item"
                )
            if zero_copy:
                columns.append(raw.cast(typecode))
            else:
                column = array(typecode)
                column.frombytes(raw)
                if sys.byteorder != "little":  # pragma: no cover - exotic hosts
                    column.byteswap()
                columns.append(column)
        ops, arg0, arg1 = columns[0], columns[1], columns[2]
        if not (len(ops) == len(arg0) == len(arg1)):
            raise CompiledTraceError("event columns disagree on length")
        return cls(ops, arg0, arg1, strings, *columns[3:])

    def byte_size(self) -> int:
        """Approximate in-memory footprint of the columns, in bytes."""
        total = sum(len(s.encode("utf-8")) for s in self.strings)
        for name in self._COLUMNS:
            column = getattr(self, name)
            total += len(column) * column.itemsize
        return total


class TraceColumns:
    """Growable plain-list columns in :class:`CompiledTrace`'s layout.

    :meth:`push` encodes one event (exact event classes only, like the
    compiled format); :meth:`compile` freezes the columns into a
    :class:`CompiledTrace`. The long-running service also replays these
    columns directly as events arrive (``repro.sim.batch.StreamWindow``),
    recycling them with :meth:`clear`, which keeps the string table so
    string indices stay valid.
    """

    __slots__ = (
        "ops", "arg0", "arg1", "strings", "_intern",
        "create_kind", "create_ptr_start", "ptr_slots", "ptr_targets",
        "write_slot", "write_dies_start", "dies",
    )

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._intern: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every event (the string table stays)."""
        self.ops: list[int] = []
        self.arg0: list[int] = []
        self.arg1: list[int] = []
        self.create_kind: list[int] = []
        self.create_ptr_start = [0]
        self.ptr_slots: list[int] = []
        self.ptr_targets: list[int] = []
        self.write_slot: list[int] = []
        self.write_dies_start = [0]
        self.dies: list[int] = []

    def __len__(self) -> int:
        return len(self.ops)

    def _string(self, text: str) -> int:
        index = self._intern.get(text)
        if index is None:
            index = self._intern[text] = len(self.strings)
            self.strings.append(text)
        return index

    def push(self, event: TraceEvent) -> None:
        """Append one event's encoding."""
        cls = type(event)
        if cls is AccessEvent:
            self.ops.append(_OP_ACCESS)
            self.arg0.append(event.oid)
            self.arg1.append(0)
        elif cls is IdleEvent:
            self.ops.append(_OP_IDLE)
            self.arg0.append(event.ticks)
            self.arg1.append(0)
        elif cls is CreateEvent:
            self.ops.append(_OP_CREATE)
            self.arg0.append(event.oid)
            self.arg1.append(event.size)
            intern = self._intern
            # ``_value_`` is the member's string, without the Enum ``value``
            # descriptor's Python-level lookup.
            text = event.kind._value_
            index = intern.get(text)
            self.create_kind.append(self._string(text) if index is None else index)
            ptr_slots = self.ptr_slots
            for slot, target in event.pointers:
                index = intern.get(slot)
                ptr_slots.append(self._string(slot) if index is None else index)
                self.ptr_targets.append(_NONE if target is None else target)
            self.create_ptr_start.append(len(ptr_slots))
        elif cls is PointerWriteEvent:
            self.ops.append(_OP_WRITE)
            self.arg0.append(event.src)
            target = event.target
            self.arg1.append(_NONE if target is None else target)
            slot = event.slot
            index = self._intern.get(slot)
            self.write_slot.append(self._string(slot) if index is None else index)
            dies = self.dies
            dies.extend(event.dies)
            self.write_dies_start.append(len(dies))
        elif cls is UpdateEvent:
            self.ops.append(_OP_UPDATE)
            self.arg0.append(event.oid)
            self.arg1.append(0)
        elif cls is RootEvent:
            self.ops.append(_OP_ROOT)
            self.arg0.append(event.oid)
            self.arg1.append(0)
        elif cls is PhaseMarkerEvent:
            self.ops.append(_OP_PHASE)
            self.arg0.append(self._string(event.name))
            self.arg1.append(0)
        elif cls is BeginTransactionEvent:
            self.ops.append(_OP_BEGIN)
            self.arg0.append(event.txid)
            self.arg1.append(0)
        elif cls is CommitTransactionEvent:
            self.ops.append(_OP_COMMIT)
            self.arg0.append(event.txid)
            self.arg1.append(0)
        elif cls is AbortTransactionEvent:
            self.ops.append(_OP_ABORT)
            self.arg0.append(event.txid)
            self.arg1.append(0)
        else:
            raise TypeError(f"cannot compile unknown trace event {event!r}")

    def compile(self) -> CompiledTrace:
        """The pushed events as an immutable :class:`CompiledTrace`."""
        return CompiledTrace(
            array("b", self.ops), array("q", self.arg0), array("q", self.arg1),
            list(self.strings),
            array("q", self.create_kind), array("q", self.create_ptr_start),
            array("q", self.ptr_slots), array("q", self.ptr_targets),
            array("q", self.write_slot), array("q", self.write_dies_start),
            array("q", self.dies),
        )


def compile_trace(events: Iterable[TraceEvent]) -> CompiledTrace:
    """Materialise an event stream into a :class:`CompiledTrace`.

    Consumes the iterable once. Replaying the result is event-for-event
    equal to the original stream (tests assert this property under
    Hypothesis-generated traces).
    """
    columns = TraceColumns()
    push = columns.push
    for event in events:
        push(event)
    return columns.compile()
