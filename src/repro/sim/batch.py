"""Batched trace replay: the simulator's one interpreter.

:meth:`repro.sim.simulator.Simulation.run` compiles its input into a
:class:`~repro.workload.compiled.CompiledTrace` and replays it here,
directly from the columnar form — no per-event
:class:`~repro.events.TraceEvent` objects, no handler dispatch. At trace
scale (hundreds of thousands of events per policy cell) that per-event
overhead would dominate wall time. Replay runs in one of two modes:

* **fast mode** (:func:`_replay_fast`) — a fused interpreter that hoists
  every piece of hot mutable state (I/O ledgers, buffer LRU, sampler
  accumulators, garbage totals, the trigger clock) into plain locals,
  applies events with inlined copies of the store's kernels, and only
  *flushes* the locals back to the real objects at **run boundaries**: a
  GC trigger firing, a transaction span, a deadline check, or the end of
  the trace. Homogeneous ACCESS/UPDATE runs (from the precomputed
  run-length index) are applied as bulk operations when the trigger clock
  is provably frozen across the run. Eligibility is conservative
  (:func:`_fast_eligible`): any hook, fault injector, retained event
  series, parallel collection or subclassed component routes to guarded
  mode instead. A redo log does not: fast mode commits each mutation
  outside an explicit transaction as an inline singleton — the same redo
  records and WAL page writes as a per-event auto-commit through
  :class:`~repro.tx.manager.TransactionManager`, without the transaction
  objects.

* **guarded mode** (:func:`_replay_guarded`) — a per-event loop over the
  same columns that calls the real store/transaction/sampler methods in
  event order, so it composes with fault injection, WAL/redo
  logging, opportunistic policies and retained series. Fast mode also
  drops into guarded mode for the span of each explicit transaction.

Both modes also replay a :class:`StreamWindow` — columns the long-running
service appends stream events to one at a time (:func:`replay_window`):
when the interpreter has applied every column it asks a feed for the next
event, so it never reads ahead of what it has applied.

Both modes are **result-identical to a per-event interpreter** that
decodes each event and calls the store's public methods — the byte-
identity oracle ``tests/sim/scalar_oracle.py``: summaries are
pickle-equal and final store state matches field for field (property-
tested in ``tests/sim/test_batch_replay.py``). Bitwise float equality
holds because every floating-point operation of the per-event path —
garbage-fraction divisions and the sampler's sequential ``total +=``
folds — is reproduced operation for operation; bulk runs reuse the one
unchanged quotient and fold it sequentially (:func:`_fold_add`, which
uses ``numpy.add.accumulate`` — a documented left fold — never pairwise
``numpy.sum``).

NumPy is optional (the ``[perf]`` extra): when importable it accelerates
the cache-building kernels (run-length index, prefix counts, fold), and
the pure-``array`` fallbacks compute bit-identical results (A/B-tested by
monkeypatching :data:`_HAVE_NUMPY`).

Error paths: a :class:`~repro.storage.heap.StoreError` raised mid-batch
(only malformed traces do this) flushes the mirrored counters before
propagating, so the store is left observationally consistent; page
touches of a partially applied bulk run are the one accepted divergence
from the oracle's error-state.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

try:  # pragma: no cover - exercised via the monkeypatched fallback tests
    import numpy as _np

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    _HAVE_NUMPY = False

from repro.core.extensions import OpportunisticPolicy
from repro.core.rate_policy import TimeBase
from repro.faults.injector import SimulatedCrash
from repro.gc.remembered import RememberedSetIndex
from repro.sim.metrics import Sampler
from repro.storage.buffer import BufferPool
from repro.storage.heap import _OPEN_LIST_STALE_LIMIT, ObjectStore, StoreError
from repro.storage.iostats import IOCategory, IOStats
from repro.storage.object_model import ObjectKind, StoredObject
from repro.storage.objtable import PlacementTable
from repro.storage.partition import Partition
from repro.tx.manager import TransactionManager
from repro.tx.recovery import RedoLog, RedoRecord
from repro.tx.wal import RECORD_SIZES, WriteAheadLog
from repro.workload.compiled import (
    _NONE,
    CompiledTrace,
    CompiledTraceError,
    TraceColumns,
)

_APP = IOCategory.APPLICATION
_BASE_OVERWRITES = TimeBase.OVERWRITES
_BASE_ALLOCATED = TimeBase.ALLOCATED

#: Buffer-pool pop sentinel (hit/miss discrimination without double lookup).
_MISS = object()

#: Deadline checks are amortised over this many events in fast mode; the
#: guarded loop checks once per event.
_DEADLINE_STRIDE = 4096

#: Minimum homogeneous ACCESS/UPDATE run length worth taking the bulk path.
_BULK_MIN_RUN = 4


def _timeout():
    # Local import: repro.sim.engine imports the simulator, which imports
    # this module, at module scope — importing the engine here at module
    # scope would close that cycle.
    from repro.sim.engine import RunTimeoutError

    return RunTimeoutError("simulation run exceeded run_timeout")


# ----------------------------------------------------------------------
# Kernels: run index, prefix counts, sequential float fold
#
# Each has a numpy and a pure-python form computing identical results;
# _HAVE_NUMPY selects at call time so tests can flip it.
# ----------------------------------------------------------------------


def _run_ends_python(ops: list) -> list:
    """``run_end[i]`` = end (exclusive) of the homogeneous opcode run at i."""
    n = len(ops)
    ends = [n] * n
    for i in range(n - 2, -1, -1):
        ends[i] = ends[i + 1] if ops[i] == ops[i + 1] else i + 1
    return ends


def _run_ends_numpy(ops: list) -> list:
    n = len(ops)
    if n == 0:
        return []
    a = _np.asarray(ops, dtype=_np.int64)
    starts = _np.flatnonzero(a[1:] != a[:-1]) + 1
    bounds = _np.concatenate((starts, [n]))
    lengths = _np.diff(_np.concatenate(([0], bounds)))
    return _np.repeat(bounds, lengths).tolist()


def _max_create_oid_python(ops: list, arg0: list) -> int:
    best = 0
    for i, op in enumerate(ops):
        if op == 0 and arg0[i] > best:
            best = arg0[i]
    return best


def _max_create_oid_numpy(ops: list, arg0: list) -> int:
    a = _np.asarray(ops, dtype=_np.int64)
    creates = _np.asarray(arg0, dtype=_np.int64)[a == 0]
    return int(creates.max()) if creates.size else 0


def _prefix_counts(ops: list, start: int) -> tuple[int, int]:
    """(creates, writes) among ``ops[:start]`` — the running sub-column
    cursors a mid-trace resume must start from."""
    if start <= 0:
        return 0, 0
    if _HAVE_NUMPY and start >= 4096:
        a = _np.asarray(ops[:start], dtype=_np.int64)
        return int((a == 0).sum()), int((a == 3).sum())
    head = ops[:start]
    return head.count(0), head.count(3)


def _fold_add(total: float, value: float, count: int) -> float:
    """``count`` sequential IEEE-754 additions of ``value`` onto ``total``.

    Must stay a left fold: the sampler adds one ``value`` per event,
    and pairwise summation (``numpy.sum``) rounds differently.
    ``ufunc.accumulate`` is documented to apply the operator sequentially,
    so the numpy form is bitwise-equal to the loop.
    """
    if _HAVE_NUMPY and count >= 32:
        arr = _np.empty(count + 1, dtype=_np.float64)
        arr[0] = total
        arr[1:] = value
        return float(_np.add.accumulate(arr)[-1])
    for _ in range(count):
        total += value
    return total


# ----------------------------------------------------------------------
# Auto-commit singletons: the redo/WAL bookkeeping of fast mode
#
# With a redo log attached, every CREATE/WRITE/UPDATE/ROOT outside an
# explicit transaction is committed as a singleton transaction (guarded
# mode does it through the TransactionManager). Fast mode logs those
# inline: it appends the same RedoRecords, charges the WAL's page writes
# to the application ledger as they happen (they advance the app-I/O
# clock), and settles the remaining WAL and transaction counters at each
# flush. A singleton with no fault hook cannot abort, so no Transaction
# or undo objects are built.
# ----------------------------------------------------------------------

_record = tuple.__new__  # builds a RedoRecord without its Python __new__
_RR = RedoRecord
#: RedoRecord fields after (kind, txid) of a record with no payload.
_NO_PAYLOAD = (None, None, None, (), None, None, (), None)


def _auto_commit(rext, txid, record=None) -> None:
    """Log one singleton: begin, the operation's ``record`` (None for an
    update or an already-registered root, which carry no redo payload),
    commit."""
    begin = _record(_RR, ("begin", txid) + _NO_PAYLOAD)
    commit = _record(_RR, ("commit", txid) + _NO_PAYLOAD)
    rext((begin, commit) if record is None else (begin, record, commit))


def _fresh_deaths(objects_get, dls, lo, hi) -> tuple:
    """The ``dies[lo:hi]`` entries not yet dead, as TransactionManager
    logs them: computed before any is declared, duplicates kept."""
    fresh = []
    while lo < hi:
        victim = dls[lo]
        lo += 1
        vobj = objects_get(victim)
        if vobj is not None and not vobj.dead:
            fresh.append(victim)
    return tuple(fresh)


def _singleton_pages(page_size: int, record_type: str) -> int:
    """WAL page writes of one singleton (begin, op, commit, force),
    starting from an empty tail page — which every force leaves."""
    tail = pages = 0
    for size in (RECORD_SIZES["begin"], RECORD_SIZES[record_type],
                 RECORD_SIZES["commit"]):
        tail += size
        while tail >= page_size:
            tail -= page_size
            pages += 1
    return pages + (1 if tail else 0)


def _settle_singletons(sim, appended, txid, creates, writes, updates, roots):
    """Write fast mode's auto-commit counters back to the log, the WAL's
    statistics and the transaction manager."""
    sim._auto_txid = txid
    sim.redo_log.appended_total += appended
    total = creates + writes + updates + roots
    if not total:
        return
    tx = sim.tx
    tx.committed += total
    wal = tx.wal
    if wal is None:
        return
    stats = wal.stats
    by_type = stats.records_by_type
    by_type["begin"] = by_type.get("begin", 0) + total
    logged = total * (RECORD_SIZES["begin"] + RECORD_SIZES["commit"])
    pages = 0
    for name, count in (("create", creates), ("write", writes),
                        ("update", updates), ("root", roots)):
        if count:
            by_type[name] = by_type.get(name, 0) + count
            logged += count * RECORD_SIZES[name]
            pages += count * _singleton_pages(wal.page_size, name)
    by_type["commit"] = by_type.get("commit", 0) + total
    stats.records += 3 * total
    stats.bytes_logged += logged
    stats.forces += total
    stats.pages_written += pages


# ----------------------------------------------------------------------
# Batch cache: plain-list column views + run index, memoised per trace
# ----------------------------------------------------------------------


class _BatchCache:
    """Replay-ready views of one compiled trace's columns.

    Columns are ``.tolist()``-ed once: list indexing returns pre-boxed ints,
    which beats per-access boxing out of ``array``/``memoryview`` columns in
    the interpreter loops. Shared across every replay of the trace (the
    trace is immutable), including the decoded :class:`ObjectKind` memo.
    """

    __slots__ = (
        "ops", "arg0", "arg1",
        "create_kind", "create_ptr_start", "ptr_slots", "ptr_targets",
        "write_slot", "write_dies_start", "dies",
        "run_end", "max_oid", "kinds",
    )


def _as_list(column) -> list:
    return column.tolist()


def _ensure_cache(trace: CompiledTrace) -> _BatchCache:
    cache = trace._batch_cache
    if cache is None:
        cache = _BatchCache()
        cache.ops = _as_list(trace.ops)
        cache.arg0 = _as_list(trace.arg0)
        cache.arg1 = _as_list(trace.arg1)
        cache.create_kind = _as_list(trace.create_kind)
        cache.create_ptr_start = _as_list(trace.create_ptr_start)
        cache.ptr_slots = _as_list(trace.ptr_slots)
        cache.ptr_targets = _as_list(trace.ptr_targets)
        cache.write_slot = _as_list(trace.write_slot)
        cache.write_dies_start = _as_list(trace.write_dies_start)
        cache.dies = _as_list(trace.dies)
        if _HAVE_NUMPY:
            cache.run_end = _run_ends_numpy(cache.ops)
            cache.max_oid = _max_create_oid_numpy(cache.ops, cache.arg0)
        else:
            cache.run_end = _run_ends_python(cache.ops)
            cache.max_oid = _max_create_oid_python(cache.ops, cache.arg0)
        cache.kinds = {}
        trace._batch_cache = cache
    return cache


# ----------------------------------------------------------------------
# Stream window: columns fed one event at a time
# ----------------------------------------------------------------------


class StreamWindow(TraceColumns):
    """Replay-ready columns for a stream that arrives one event at a time.

    The long-running service's counterpart of a compiled trace and its
    :class:`_BatchCache`: the interpreters read the window as both
    ``trace`` and ``cache``.
    """

    __slots__ = ("kinds", "max_oid")

    #: Run lengths are never known ahead (the next event has not arrived),
    #: so every event closes its own run and bulk runs never start.
    run_end = range(1, sys.maxsize)

    def __init__(self) -> None:
        self.kinds: dict = {}
        self.max_oid = -1  # unknown: the fast loop grows the table itself
        super().__init__()


def replay_window(sim, window: StreamWindow, feed, fast: bool) -> None:
    """Replay ``window`` on ``sim``, pulling further events through ``feed``.

    Whenever the interpreter has applied every event in the window — and,
    in fast mode, handled any collection the last one triggered — it calls
    ``feed.pull()``, which either pushes exactly one event onto the window
    and returns True, or returns False. On False this returns, with every
    mirrored counter flushed back, so the caller sees the real state. The
    feed exposes ``heap_peak``, which both modes raise to the largest
    ``db_size`` seen after an event. ``fast`` selects :func:`_replay_fast`
    (the caller checks :func:`_fast_eligible`) or :func:`_replay_guarded`.
    """
    n = len(window.ops)
    if fast:
        _replay_fast(sim, window, window, 0, n, 0, 0, None, feed)
    else:
        _replay_guarded(sim, window, window, 0, n, 0, 0, None, False, feed)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_batched(sim, trace: CompiledTrace, start_index: int = 0,
                deadline: Optional[float] = None):
    """Replay ``trace`` on ``sim`` through the batched interpreter.

    This is the interpreter behind
    :meth:`repro.sim.simulator.Simulation.run`: it arms the first trigger,
    replays events ``[start_index, len(trace))`` in fast or guarded mode
    (:func:`_fast_eligible`), annotates an escaping
    :class:`SimulatedCrash` with its ``event_index`` and ``resume_index``,
    and builds the :class:`~repro.sim.simulator.SimulationResult`.
    """
    # Local import: the simulator imports this module at module scope.
    from repro.sim.simulator import SimulationResult

    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    cache = _ensure_cache(trace)
    n = len(cache.ops)
    ci, wi = _prefix_counts(cache.ops, start_index)
    sim._event_index = start_index - 1
    sim._tx_start_index = None
    store = sim.store
    try:
        sim._schedule(sim.policy.first_trigger(store, store.iostats))
        if _fast_eligible(sim):
            _replay_fast(sim, trace, cache, start_index, n, ci, wi, deadline)
        else:
            _replay_guarded(
                sim, trace, cache, start_index, n, ci, wi, deadline, False
            )
    except SimulatedCrash as crash:
        crash.event_index = sim._event_index
        crash.resume_index = (
            sim._tx_start_index
            if sim.tx.in_transaction and sim._tx_start_index is not None
            else sim._event_index + (0 if not sim._event_applied else 1)
        )
        raise
    result = SimulationResult(
        summary=sim.sampler.summary(store, store.iostats),
        sampler=sim.sampler,
        store=store,
        policy=sim.policy,
    )
    if sim.obs is not None:
        sim.obs.on_run_end(sim, result)
    return result


def _fast_eligible(sim) -> bool:
    """Whether the fused fast interpreter reproduces this run exactly.

    Fast mode inlines store/buffer/sampler kernels, so every component it
    bypasses must be the stock implementation with no hooks attached.
    Anything else — fault injection, retained event series, opportunistic
    policies, parallel collection, subclassed components — runs guarded.
    A redo log does not: fast mode logs auto-commit singletons inline,
    with their WAL cost, as long as the WAL's tail page is empty (every
    force leaves it so). Explicit transactions run as guarded spans.
    Admission control (the service's backpressure) is the caller's
    concern: it decides per event before applying, so it runs guarded too.
    """
    store = sim.store
    buffer = store.buffer
    sampler = sim.sampler
    redo = sim.redo_log
    wal = sim.tx.wal
    return (
        sim.faults is None
        and (redo is None or type(redo) is RedoLog)
        and (
            wal is None
            or type(wal) is WriteAheadLog
            and wal._iostats is store.iostats
            and (redo is None or wal.pending_bytes == 0)
        )
        # Parallel collection pumps speculative traces at the margin point
        # and validates them against store.trace_epochs; fast mode inlines
        # the mutation kernels that maintain those epochs, so parallel-mode
        # runs replay guarded (the guarded path calls the real methods).
        and sim._par is None
        and not sim.config.keep_event_series
        and sampler._series_countdown is None
        and not isinstance(sim.policy, OpportunisticPolicy)
        and type(store) is ObjectStore
        and type(store.iostats) is IOStats
        and type(buffer) is BufferPool
        and type(store.placements) is PlacementTable
        and type(store.remembered) is RememberedSetIndex
        and type(sampler) is Sampler
        and type(sim.tx) is TransactionManager
        and store.iostats.fault_hook is None
        and buffer.write_hook is None
        and buffer._iostats is store.iostats
        and not sim.tx.in_transaction
        and all(type(p) is Partition for p in store.partitions)
    )


# ----------------------------------------------------------------------
# Guarded mode: per-event column interpreter over real methods
# ----------------------------------------------------------------------


def _replay_guarded(sim, trace, cache, i, end, ci, wi, deadline,
                    until_tx_close, feed=None):
    """Apply events ``[i, end)`` via the store's real methods, one event
    at a time in trace order.

    ``ci``/``wi`` are the running create/write sub-column cursors (passed
    between fast and guarded spans rather than recomputed). With
    ``until_tx_close`` set, returns right after the first event that
    leaves no transaction open (fast mode's transaction-span handoff).
    With a ``feed`` (see :func:`replay_window`), reaching ``end`` pulls
    the next event instead of returning. Returns the advanced
    ``(i, ci, wi)``.
    """
    ops = cache.ops
    g0 = cache.arg0
    g1 = cache.arg1
    ck = cache.create_kind
    cps = cache.create_ptr_start
    psl = cache.ptr_slots
    ptg = cache.ptr_targets
    wsl = cache.write_slot
    wds = cache.write_dies_start
    dls = cache.dies
    kinds = cache.kinds
    strings = trace.strings
    none = _NONE

    store = sim.store
    iostats = store.iostats
    tx = sim.tx
    sample_event = sim.sampler.on_event
    on_phase = sim.sampler.on_phase
    handle_idle = sim._handle_idle
    clock = sim._clock
    collect = sim._collect
    redo = sim.redo_log
    note_activity = (
        sim.policy.note_activity
        if isinstance(sim.policy, OpportunisticPolicy)
        else None
    )
    monotonic = time.monotonic

    while True:
        if i >= end:
            if feed is None or not feed.pull():
                break
            end += 1
        if deadline is not None and monotonic() >= deadline:
            raise _timeout()
        op = ops[i]
        a = g0[i]
        sim._event_index += 1
        sim._event_applied = False
        if op == 5 or op == 6:  # PHASE / IDLE: not sampled
            if op == 5:
                on_phase(strings[a])
                sim._event_applied = True
            else:
                sim._event_applied = True
                handle_idle(a)
            i += 1
            if feed is None:
                continue  # no trigger check (see _replay_fast)
            if store.db_size > feed.heap_peak:
                feed.heap_peak = store.db_size
            if tx.in_transaction:
                continue
            while clock() >= sim._due_at:
                collect()
            if until_tx_close:
                return i, ci, wi
            continue
        if op < 5:  # database event: create/access/update/write/root
            auto = redo is not None and op != 1 and not tx.in_transaction
            if auto:
                txid = sim._auto_txid
                sim._auto_txid = txid - 1
                tx.begin(txid, undo=False)
                sim._tx_start_index = sim._event_index
                sink = tx
            else:
                sink = tx if tx.in_transaction else store
            if op == 1:
                sink.access(a)
            elif op == 3:
                tgt = g1[i]
                lo = wds[wi]
                hi = wds[wi + 1]
                sink.write_pointer(
                    a,
                    strings[wsl[wi]],
                    None if tgt == none else tgt,
                    dies=tuple(dls[lo:hi]),
                )
                wi += 1
            elif op == 0:
                ki = ck[ci]
                kind = kinds.get(ki)
                if kind is None:
                    kind = kinds.setdefault(ki, ObjectKind(strings[ki]))
                lo = cps[ci]
                hi = cps[ci + 1]
                pointers = {}
                for j in range(lo, hi):
                    t = ptg[j]
                    pointers[strings[psl[j]]] = None if t == none else t
                sink.create(size=g1[i], kind=kind, pointers=pointers, oid=a)
                ci += 1
            elif op == 2:
                sink.update(a)
            else:
                sink.register_root(a)
            if auto:
                tx.commit(txid)
        elif op == 7:
            tx.begin(a)
            sim._tx_start_index = sim._event_index
        elif op == 8:
            tx.commit(a)
        elif op == 9:
            tx.abort(a)
        else:  # pragma: no cover - compile_trace never emits other ops
            sim._event_index -= 1
            raise CompiledTraceError(f"unknown opcode {op} at event {i}")
        sim._event_applied = True
        i += 1
        if note_activity is not None:
            note_activity()
        sample_event(store, iostats)
        if feed is not None and store.db_size > feed.heap_peak:
            feed.heap_peak = store.db_size
        if tx.in_transaction:
            continue
        while clock() >= sim._due_at:
            collect()
        if until_tx_close:
            return i, ci, wi
    return i, ci, wi


# ----------------------------------------------------------------------
# Fast mode: fused interpreter over flat heap state
# ----------------------------------------------------------------------


def _replay_fast(sim, trace, cache, i, n, ci, wi, deadline, feed=None):
    """The fused interpreter. See the module docstring for the contract.

    Structure: the outer loop *reloads* every mirrored piece of state into
    locals; the inner loop applies events with inlined kernels; at a run
    boundary (trigger fired / transaction span / deadline / end of trace)
    the locals *flush* back and the boundary is handled with the real
    methods (``sim._collect``, :func:`_replay_guarded`). With a ``feed``
    (see :func:`replay_window`) the end of the columns pulls the next
    event instead, and the trace ends when the feed declines. No closures
    or comprehensions: the hot names must stay plain locals, not cells.
    """
    ops = cache.ops
    g0 = cache.arg0
    g1 = cache.arg1
    ck = cache.create_kind
    cps = cache.create_ptr_start
    psl = cache.ptr_slots
    ptg = cache.ptr_targets
    wsl = cache.write_slot
    wds = cache.write_dies_start
    dls = cache.dies
    run_end = cache.run_end
    kinds = cache.kinds
    strings = trace.strings
    none = _NONE
    miss = _MISS
    monotonic = time.monotonic

    store = sim.store
    sampler = sim.sampler
    iostats = store.iostats
    buffer = store.buffer
    table = store.placements
    rem = store.remembered
    garbage = store.garbage
    tx = sim.tx
    # Stream position of column 0 (columns of a feed window are recycled).
    ebase = sim._event_index + 1 - i

    # Auto-commit (redo log attached): per-singleton WAL page writes by
    # operation type; zero without a WAL.
    redo = sim.redo_log
    auto = redo is not None
    wal = tx.wal
    if auto and wal is not None:
        wp_cr = _singleton_pages(wal.page_size, "create")
        wp_wr = _singleton_pages(wal.page_size, "write")
        wp_up = _singleton_pages(wal.page_size, "update")
        wp_ro = _singleton_pages(wal.page_size, "root")
    else:
        wp_cr = wp_wr = wp_up = wp_ro = 0
    records = rext = None

    # Dense placement columns. reserve() grows the arrays in place (their
    # identity is stable), so pre-sizing for the largest created oid makes
    # every in-range insert a plain indexed store.
    if cache.max_oid >= 0:
        table.reserve(cache.max_oid + 1)
    tparts = table.parts
    toffs = table.offs
    tsizes = table.sizes

    objects = store.objects
    objects_get = objects.get
    partitions = store.partitions
    free = store._partition_free          # mutated in place by the store
    open_parts = store._open_partitions   # prune preserves identity
    unlinked = store.unlinked
    roots = store.roots
    dead_bytes = store.dead_bytes
    rem_roots = rem._roots
    rem_pins = rem._pins
    rem_sources = rem._sources

    pages = buffer._pages
    pages_pop = pages.pop
    pop_lru = pages.popitem
    bufcap1 = buffer._capacity - 1
    bstats = buffer.stats
    app_led = iostats._ledgers[_APP]

    page_size = store.config.page_size
    phys_mode = store.config.db_size_mode == "physical"
    preamble = sampler.preamble_collections
    ga = sampler._garbage_all
    g = sampler._garbage
    stale_limit = _OPEN_LIST_STALE_LIMIT
    obj_cls = StoredObject
    obj_new = obj_cls.__new__
    last_ki = -1  # kind-column memo: traces cluster creates by kind
    last_kind = None

    while True:
        # ---- reload: mirror mutable state into locals ----------------
        dense = len(tparts)  # fed windows grow the table as oids arrive
        next_oid = store._next_oid
        alloc_bytes = store._allocated_bytes
        alloc_clock = store.bytes_allocated_total
        po = store.pointer_overwrites
        pstores = store.pointer_stores
        tot_gen = garbage.total_generated
        tot_coll = garbage.total_collected  # only _collect changes this
        tcount = 0                          # dense placement-count delta
        hits = bstats.hits
        misses = bstats.misses
        app_r = app_led.reads
        app_w = app_led.writes
        gc_total = iostats.collector_total  # frozen between collections
        rem_edges = rem.edges
        rem_rem = rem.remembers_total
        rem_forg = rem.forgets_total
        ev_i = sampler.event_index
        collections = sampler.collections   # frozen between collections
        sig = sampler._significant_started
        ga_count = ga.count
        ga_total = ga.total
        ga_min = ga.minimum
        ga_max = ga.maximum
        g_count = g.count
        g_total = g.total
        g_min = g.minimum
        g_max = g.maximum
        trig_base = sim._trigger.base
        if trig_base is _BASE_OVERWRITES:
            base_kind = 0
        elif trig_base is _BASE_ALLOCATED:
            base_kind = 1
        else:
            base_kind = 2
        due = sim._due_at
        if auto:
            records = redo.records
            rext = records.extend
            logged0 = len(records)
        atx = sim._auto_txid
        n_cr = n_wr = n_up = n_ro = 0
        dbsz = store._physical_bytes if phys_mode else alloc_bytes
        garb = tot_gen - tot_coll
        gf = garb / dbsz if dbsz else 0.0
        lgf = miss  # last gf folded into min/max; miss forces a compare
        npages = len(pages)
        # Most-recently-used page mirror: a touch of the page that is
        # already at the back of the LRU is order-preserving in the
        # buffer pool too (pop + reinsert of the back element), so it collapses to
        # a hit count and, at most, a dirty upgrade. Sequential creates and
        # traversals hit this constantly.
        mru_pid = -1
        mru_page = -1
        mru_dirty = False
        # Bump-allocation cache: partition.fill is mirrored into cur_fill
        # for the partition creates are currently landing in, flushed when
        # the target partition changes and at every run boundary.
        cur_pid = -1
        cur_part = None
        cur_fill = 0
        cur_res_add = None
        cur_pins = None
        cur_pins_add = None

        fired = False
        span = False
        timed_out = False
        budget = _DEADLINE_STRIDE

        completed = False
        try:
            while True:
                if i >= n:
                    if feed is None or not feed.pull():
                        break
                    n += 1
                op = ops[i]
                a = g0[i]
                if op == 3:  # WRITE
                    src = a
                    # Placed-in-the-dense-table is equivalent to existence:
                    # objects and placements share a keyset until reclaim.
                    try:
                        obj = objects[src]
                    except KeyError:
                        raise StoreError(f"unknown object {src}") from None
                    if 0 <= src < dense:
                        sp = tparts[src]
                        soff = toffs[src]
                        ssz = tsizes[src]
                    else:
                        sp, soff, ssz = table.locate(src)
                    tgt = g1[i]
                    if tgt == none:
                        tgt = None
                        tp = -1
                    elif 0 <= tgt < dense and (tp := tparts[tgt]) >= 0:
                        pass
                    elif objects_get(tgt) is None:
                        raise StoreError(f"pointer target {tgt} does not exist")
                    else:
                        tp = table.part_of(tgt)
                    optrs = obj.pointers
                    slot = strings[wsl[wi]]
                    old = optrs.get(slot)
                    optrs[slot] = tgt
                    first = soff // page_size
                    last = (soff + ssz - 1) // page_size
                    while first <= last:
                        if sp == mru_pid and first == mru_page:
                            first += 1
                            hits += 1
                            if not mru_dirty:
                                pages[(sp, mru_page)] = True
                                mru_dirty = True
                            continue
                        pg = (sp, first)
                        mru_pid = sp
                        mru_page = first
                        first += 1
                        wasd = pages_pop(pg, miss)
                        if wasd is not miss:
                            hits += 1
                            pages[pg] = True
                        else:
                            misses += 1
                            while npages > bufcap1:
                                npages -= 1
                                if pop_lru(False)[1]:
                                    app_w += 1
                            app_r += 1
                            npages += 1
                            pages[pg] = True
                        mru_dirty = True
                    if old is not None:
                        po += 1
                        old_pid = (
                            tparts[old] if 0 <= old < dense
                            else table.part_of(old)
                        )
                        if old_pid >= 0:
                            partitions[old_pid].pointer_overwrites += 1
                            if old_pid != sp:
                                # Partition.forget + forget_source, with the
                                # same found/absent branch placements.
                                inc = partitions[old_pid].incoming
                                srcs = inc.get(old)
                                if srcs is not None:
                                    cnt0 = srcs.get(src)
                                    if cnt0 is not None:
                                        if cnt0 <= 1:
                                            del srcs[src]
                                            if not srcs:
                                                del inc[old]
                                        else:
                                            srcs[src] = cnt0 - 1
                                        sdict = rem_sources.get(old_pid)
                                        if sdict is not None:
                                            c2 = sdict.get(src)
                                            if c2 is not None:
                                                if c2 <= 1:
                                                    del sdict[src]
                                                else:
                                                    sdict[src] = c2 - 1
                                                rem_edges -= 1
                                                rem_forg += 1
                    else:
                        pstores += 1
                    if tgt is not None:
                        if tgt in unlinked:
                            unlinked.discard(tgt)
                            pd = rem_pins.get(tp)
                            if pd is not None:
                                pd.discard(tgt)
                        if tp >= 0 and tp != sp:
                            inc2 = partitions[tp].incoming
                            srcs2 = inc2.get(tgt)
                            if srcs2 is None:
                                inc2[tgt] = {src: 1}
                            else:
                                srcs2[src] = srcs2.get(src, 0) + 1
                            pd2 = rem_sources.get(tp)
                            if pd2 is None:
                                rem_sources[tp] = {src: 1}
                            else:
                                pd2[src] = pd2.get(src, 0) + 1
                            rem_edges += 1
                            rem_rem += 1
                    lo = wds[wi]
                    hi = wds[wi + 1]
                    wi += 1
                    if auto:
                        died = (
                            _fresh_deaths(objects_get, dls, lo, hi)
                            if lo != hi else ()
                        )
                        _auto_commit(rext, atx, _record(_RR, (
                            "write", atx, src, None, None, (), slot, tgt,
                            died, None,
                        )))
                        atx -= 1
                        n_wr += 1
                        app_w += wp_wr
                    if lo != hi:
                        while lo < hi:
                            victim = dls[lo]
                            lo += 1
                            vobj = objects_get(victim)
                            if vobj is None or vobj.dead:
                                continue
                            vobj.dead = True
                            vsz = vobj.size
                            tot_gen += vsz
                            garb += vsz
                            vp = (
                                tparts[victim] if 0 <= victim < dense
                                else table.part_of(victim)
                            )
                            if vp < 0:
                                raise StoreError(
                                    f"object {victim} has no placement"
                                )
                            dead_bytes[vp] = dead_bytes.get(vp, 0) + vsz
                        gf = garb / dbsz if dbsz else 0.0

                elif op == 1 or op == 2:  # ACCESS / UPDATE
                    dirty = op == 2
                    j = run_end[i]
                    if (
                        j - i >= _BULK_MIN_RUN
                        and sig
                        and base_kind != 2
                        and (po < due if base_kind == 0 else alloc_clock < due)
                    ):
                        # Bulk run: the trigger clock (overwrites or
                        # allocation) is frozen across pure reads/updates
                        # and significance already started, so per-event
                        # sampling collapses to one fold of the unchanged
                        # garbage fraction and the trigger cannot fire
                        # mid-run.
                        cnt = j - i
                        k = i
                        while k < j:
                            oidk = g0[k]
                            k += 1
                            if 0 <= oidk < dense and (pk := tparts[oidk]) >= 0:
                                offk = toffs[oidk]
                                szk = tsizes[oidk]
                            else:
                                if objects_get(oidk) is None:
                                    raise StoreError(f"unknown object {oidk}")
                                pk, offk, szk = table.locate(oidk)
                            first = offk // page_size
                            last = (offk + szk - 1) // page_size
                            while first <= last:
                                if pk == mru_pid and first == mru_page:
                                    first += 1
                                    hits += 1
                                    if dirty and not mru_dirty:
                                        pages[(pk, mru_page)] = True
                                        mru_dirty = True
                                    continue
                                pg = (pk, first)
                                mru_pid = pk
                                mru_page = first
                                first += 1
                                wasd = pages_pop(pg, miss)
                                if wasd is not miss:
                                    hits += 1
                                    mru_dirty = wasd or dirty
                                    pages[pg] = mru_dirty
                                else:
                                    misses += 1
                                    while npages > bufcap1:
                                        npages -= 1
                                        if pop_lru(False)[1]:
                                            app_w += 1
                                    app_r += 1
                                    npages += 1
                                    pages[pg] = dirty
                                    mru_dirty = dirty
                        i = j
                        ev_i += cnt
                        ga_count += cnt
                        ga_total = _fold_add(ga_total, gf, cnt)
                        if gf < ga_min:
                            ga_min = gf
                        if gf > ga_max:
                            ga_max = gf
                        g_count += cnt
                        g_total = _fold_add(g_total, gf, cnt)
                        if gf < g_min:
                            g_min = gf
                        if gf > g_max:
                            g_max = gf
                        if dirty and auto:
                            # One singleton per update; its WAL writes do
                            # not move this run's frozen trigger clock.
                            k = cnt
                            while k:
                                _auto_commit(rext, atx)
                                atx -= 1
                                k -= 1
                            n_up += cnt
                            app_w += cnt * wp_up
                        budget -= cnt
                        if budget <= 0:
                            budget = _DEADLINE_STRIDE
                            if deadline is not None and monotonic() >= deadline:
                                timed_out = True
                                break
                        continue
                    # Scalar access/update: placement lookup + page touch.
                    if 0 <= a < dense and (pk := tparts[a]) >= 0:
                        offk = toffs[a]
                        szk = tsizes[a]
                    else:
                        if objects_get(a) is None:
                            raise StoreError(f"unknown object {a}")
                        pk, offk, szk = table.locate(a)
                    first = offk // page_size
                    last = (offk + szk - 1) // page_size
                    while first <= last:
                        if pk == mru_pid and first == mru_page:
                            first += 1
                            hits += 1
                            if dirty and not mru_dirty:
                                pages[(pk, mru_page)] = True
                                mru_dirty = True
                            continue
                        pg = (pk, first)
                        mru_pid = pk
                        mru_page = first
                        first += 1
                        wasd = pages_pop(pg, miss)
                        if wasd is not miss:
                            hits += 1
                            mru_dirty = wasd or dirty
                            pages[pg] = mru_dirty
                        else:
                            misses += 1
                            while npages > bufcap1:
                                npages -= 1
                                if pop_lru(False)[1]:
                                    app_w += 1
                            app_r += 1
                            npages += 1
                            pages[pg] = dirty
                            mru_dirty = dirty
                    if dirty and auto:
                        _auto_commit(rext, atx)
                        atx -= 1
                        n_up += 1
                        app_w += wp_up

                elif op == 0:  # CREATE
                    oid = a
                    if oid in objects:
                        raise StoreError(f"object {oid} already exists")
                    size = g1[i]
                    if oid >= next_oid:
                        next_oid = oid + 1
                    ki = ck[ci]
                    if ki != last_ki:
                        last_kind = kinds.get(ki)
                        if last_kind is None:
                            last_kind = kinds.setdefault(
                                ki, ObjectKind(strings[ki])
                            )
                        last_ki = ki
                    kind = last_kind
                    # StoredObject sans constructor: the dataclass __init__
                    # plus __post_init__ cost ~1µs/object, a quarter of the
                    # whole create kernel. Same validation, same message.
                    if size <= 0:
                        raise ValueError(
                            f"object size must be positive, got {size}"
                        )
                    obj = obj_new(obj_cls)
                    obj.oid = oid
                    obj.size = size
                    obj.kind = kind
                    obj.pointers = {}
                    obj.dead = False
                    # _place inline: open-list first fit + bump, with the
                    # current partition's fill mirrored in cur_fill.
                    alloc_bytes += size
                    pid = -1
                    for pp in open_parts:
                        if size <= free[pp]:
                            pid = pp
                            break
                    if pid < 0:
                        if cur_pid >= 0:
                            cur_part.fill = cur_fill
                        cur_part = store._grow_partition(size)
                        cur_pid = pid = cur_part.pid
                        cur_fill = cur_part.fill
                        cur_res_add = cur_part.residents.add
                        cur_pins = rem_pins.get(pid)
                        if cur_pins is not None:
                            cur_pins_add = cur_pins.add
                        if phys_mode:
                            dbsz = store._physical_bytes
                    elif pid != cur_pid:
                        if cur_pid >= 0:
                            cur_part.fill = cur_fill
                        cur_part = partitions[pid]
                        cur_pid = pid
                        cur_fill = cur_part.fill
                        cur_res_add = cur_part.residents.add
                        cur_pins = rem_pins.get(pid)
                        if cur_pins is not None:
                            cur_pins_add = cur_pins.add
                    off = cur_fill
                    cur_fill = off + size
                    cur_res_add(oid)
                    left = free[pid] - size
                    free[pid] = left
                    if left <= 0:
                        store._open_stale += 1
                        if store._open_stale >= stale_limit:
                            store._prune_open_partitions()
                    alloc_clock += size
                    objects[oid] = obj
                    if 0 <= oid < dense:
                        tparts[oid] = pid
                        toffs[oid] = off
                        tsizes[oid] = size
                        tcount += 1
                    else:
                        table.put(oid, pid, off, size)
                        dense = len(tparts)  # put may have grown the table
                    unlinked.add(oid)
                    if cur_pins is None:
                        cur_pins = {oid}
                        rem_pins[pid] = cur_pins
                        cur_pins_add = cur_pins.add
                    else:
                        cur_pins_add(oid)
                    first = off // page_size
                    last = (off + size - 1) // page_size
                    while first <= last:
                        if pid == mru_pid and first == mru_page:
                            first += 1
                            hits += 1
                            if not mru_dirty:
                                pages[(pid, mru_page)] = True
                                mru_dirty = True
                            continue
                        pg = (pid, first)
                        mru_pid = pid
                        mru_page = first
                        first += 1
                        wasd = pages_pop(pg, miss)
                        if wasd is not miss:
                            hits += 1
                            pages[pg] = True
                        else:
                            misses += 1
                            while npages > bufcap1:
                                npages -= 1
                                if pop_lru(False)[1]:
                                    app_w += 1
                            app_r += 1
                            npages += 1
                            pages[pg] = True
                        mru_dirty = True
                    lo = cps[ci]
                    hi = cps[ci + 1]
                    ci += 1
                    if lo != hi:
                        optrs = obj.pointers
                        if hi - lo > 1:
                            # dict(event.pointers) semantics: dedup by slot,
                            # first-occurrence order, last value wins. Slot
                            # strings are interned per trace, so index
                            # equality is string equality.
                            dedup = {}
                            while lo < hi:
                                dedup[psl[lo]] = ptg[lo]
                                lo += 1
                            pairs = dedup.items()
                        else:
                            pairs = ((psl[lo], ptg[lo]),)
                        for sli, traw in pairs:
                            if traw == none:
                                optrs[strings[sli]] = None
                                continue
                            tgt = traw
                            if 0 <= tgt < dense and (tp := tparts[tgt]) >= 0:
                                pass
                            elif objects_get(tgt) is None:
                                raise StoreError(
                                    f"pointer target {tgt} does not exist"
                                )
                            else:
                                tp = table.part_of(tgt)
                            optrs[strings[sli]] = tgt
                            if tgt in unlinked:
                                unlinked.discard(tgt)
                                pd2 = rem_pins.get(tp)
                                if pd2 is not None:
                                    pd2.discard(tgt)
                            if tp >= 0 and tp != pid:
                                inc2 = partitions[tp].incoming
                                srcs2 = inc2.get(tgt)
                                if srcs2 is None:
                                    inc2[tgt] = {oid: 1}
                                else:
                                    srcs2[oid] = srcs2.get(oid, 0) + 1
                                pd3 = rem_sources.get(tp)
                                if pd3 is None:
                                    rem_sources[tp] = {oid: 1}
                                else:
                                    pd3[oid] = pd3.get(oid, 0) + 1
                                rem_edges += 1
                                rem_rem += 1
                    if auto:
                        _auto_commit(rext, atx, _record(_RR, (
                            "create", atx, oid, size, kind,
                            tuple(obj.pointers.items()), None, None, (), None,
                        )))
                        atx -= 1
                        n_cr += 1
                        app_w += wp_cr
                    if not phys_mode:
                        dbsz = alloc_bytes
                    gf = garb / dbsz if dbsz else 0.0

                elif op == 4:  # ROOT
                    if objects_get(a) is None:
                        raise StoreError(f"unknown object {a}")
                    if auto:
                        _auto_commit(rext, atx, None if a in roots else _record(
                            _RR, ("root", atx, a) + _NO_PAYLOAD[1:]
                        ))
                        atx -= 1
                        n_ro += 1
                        app_w += wp_ro
                    roots.add(a)
                    rp = tparts[a] if 0 <= a < dense else table.part_of(a)
                    rr = rem_roots.get(rp)
                    if rr is None:
                        rem_roots[rp] = {a}
                    else:
                        rr.add(a)
                    if a in unlinked:
                        unlinked.discard(a)
                        pd = rem_pins.get(rp)
                        if pd is not None:
                            pd.discard(a)

                elif op == 5 or op == 6:  # PHASE / IDLE: not sampled
                    if op == 5:
                        sampler.phase = name = strings[a]
                        sampler.phase_boundaries[name] = ev_i
                    # (IDLE does nothing here: opportunistic policies run
                    # guarded.) Trace replay never checks the trigger after
                    # these events, since nothing moves its clock between
                    # events. The service checks after every event: its
                    # checkpoints write WAL pages between events.
                    i += 1
                    if feed is None:
                        continue
                    if base_kind == 0:
                        if po < due:
                            continue
                    elif base_kind == 1:
                        if alloc_clock < due:
                            continue
                    elif app_r + app_w < due:
                        continue
                    fired = True
                    break

                else:  # BEGIN/COMMIT/ABORT: hand the span to guarded mode
                    span = True
                    break

                # ---- shared per-event tail (database events) ---------
                i += 1
                # Sampler.on_event, inlined; gf was recomputed exactly when
                # an operand changed (create/write-dies/reload). The min/max
                # compares are idempotent, so they only need to run when gf
                # was rebound since the last sampled event (identity check:
                # an unchanged gf is the same float object).
                ev_i += 1
                ga_count += 1
                ga_total += gf
                if sig:
                    g_count += 1
                    g_total += gf
                    if gf is not lgf:
                        lgf = gf
                        if gf < ga_min:
                            ga_min = gf
                        if gf > ga_max:
                            ga_max = gf
                        if gf < g_min:
                            g_min = gf
                        if gf > g_max:
                            g_max = gf
                elif collections >= preamble:
                    sig = True
                    sampler._app_io_at_significant = app_r + app_w
                    sampler._gc_io_at_significant = gc_total
                    g_count += 1
                    g_total += gf
                    lgf = gf
                    if gf < ga_min:
                        ga_min = gf
                    if gf > ga_max:
                        ga_max = gf
                    if gf < g_min:
                        g_min = gf
                    if gf > g_max:
                        g_max = gf
                elif gf is not lgf:
                    lgf = gf
                    if gf < ga_min:
                        ga_min = gf
                    if gf > ga_max:
                        ga_max = gf
                # Trigger check against the mirrored clock.
                if base_kind == 0:
                    if po >= due:
                        fired = True
                        break
                elif base_kind == 1:
                    if alloc_clock >= due:
                        fired = True
                        break
                elif app_r + app_w >= due:
                    fired = True
                    break
                budget -= 1
                if budget <= 0:
                    budget = _DEADLINE_STRIDE
                    if deadline is not None and monotonic() >= deadline:
                        timed_out = True
                        break
            completed = True
        finally:
            # ---- flush: write mirrored locals back -------------------
            # Also on error (event i failed mid-application), so the store
            # stays observationally consistent: error-state parity with
            # the per-event oracle on everything except page touches of a partially applied bulk
            # run and the auto-commit records of the failing event.
            if cur_pid >= 0:
                cur_part.fill = cur_fill
            store._next_oid = next_oid
            store._allocated_bytes = alloc_bytes
            store.bytes_allocated_total = alloc_clock
            store.pointer_overwrites = po
            store.pointer_stores = pstores
            garbage.total_generated = tot_gen
            if tcount:
                table._count += tcount
            bstats.hits = hits
            bstats.misses = misses
            app_led.reads = app_r
            app_led.writes = app_w
            rem.edges = rem_edges
            rem.remembers_total = rem_rem
            rem.forgets_total = rem_forg
            sampler.event_index = ev_i
            sampler._significant_started = sig
            ga.count = ga_count
            ga.total = ga_total
            ga.minimum = ga_min
            ga.maximum = ga_max
            g.count = g_count
            g.total = g_total
            g.minimum = g_min
            g.maximum = g_max
            if auto:
                _settle_singletons(
                    sim, len(records) - logged0, atx, n_cr, n_wr, n_up, n_ro
                )
            if feed is not None and dbsz > feed.heap_peak:
                # db_size only grows between flushes in fast mode, so the
                # flush-time value is the segment's peak.
                feed.heap_peak = dbsz
            sim._event_index = ebase + i - (1 if completed else 0)
            sim._event_applied = completed

        if timed_out:
            raise _timeout()
        if fired:
            clock = sim._clock
            collect = sim._collect
            while clock() >= sim._due_at:
                collect()
            continue
        if span:
            i, ci, wi = _replay_guarded(
                sim, trace, cache, i, n, ci, wi, deadline, True, feed
            )
            n = len(ops)  # the span may have pulled events from the feed
            continue
        return
