"""The collector's per-collection kernels as they were first written, kept
as the byte-identity oracle.

:func:`repro.storage.traversal.breadth_first_order` scans its output list
with one membership set, :meth:`~repro.storage.heap.ObjectStore.
compact_partition` scatters offsets straight into the placement columns,
and :meth:`~repro.storage.heap.ObjectStore.external_source_pages` reads
those columns directly. Before that, the trace was a deque breadth-first
search with separate ``seen`` and domain tests, relocation re-placed every
survivor through ``Partition.bump`` and ``PlacementTable.put``, reclamation
was one ``_reclaim`` call per object, and fix-up pages went through
``PlacementTable.locate`` per source. Those versions live here, so tests can
demand that both produce the same copy order, placements, residents order,
reclaimed bytes, remembered index and fix-up page set.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Iterable, Mapping, Optional, Sequence

from repro.storage.buffer import PageId
from repro.storage.heap import ObjectStore, StoreError
from repro.storage.object_model import ObjectId, StoredObject
from repro.storage.partition import PartitionId


def breadth_first_order(
    objects: Mapping[ObjectId, StoredObject],
    roots: Iterable[ObjectId],
    within: Optional[Container[ObjectId]] = None,
) -> list[ObjectId]:
    """Deque breadth-first traversal with separate seen / domain tests."""
    domain: Container[ObjectId] = objects if within is None else within
    seen: set[ObjectId] = set()
    queue: deque[ObjectId] = deque()
    for oid in roots:
        if oid in domain and oid not in seen:
            seen.add(oid)
            queue.append(oid)
    order: list[ObjectId] = []
    while queue:
        oid = queue.popleft()
        order.append(oid)
        for target in objects[oid].pointers.values():
            if target is not None and target not in seen and target in domain:
                seen.add(target)
                queue.append(target)
    return order


def compact_partition(
    store: ObjectStore, pid: PartitionId, survivors: Sequence[ObjectId]
) -> int:
    """Inline compaction: one ``_reclaim`` per garbage object, then every
    survivor re-placed through ``bump`` and ``put`` in copy order."""
    partition = store.partitions[pid]
    store.compaction_epoch += 1
    store.trace_epochs[pid] += 1
    survivor_set = set(survivors)
    unknown = survivor_set - partition.residents
    if unknown:
        raise StoreError(
            f"survivors {sorted(unknown)} are not residents of partition {pid}"
        )
    reclaimed = [oid for oid in partition.residents if oid not in survivor_set]
    reclaimed_bytes = 0
    for oid in reclaimed:
        reclaimed_bytes += _reclaim(store, oid, pid)

    fill_before = partition.fill
    partition.reset_for_compaction()
    placements = store.placements
    objects = store.objects
    for oid in survivors:
        size = objects[oid].size
        placements.put(oid, pid, partition.bump(oid, size), size)
    store._allocated_bytes -= fill_before - partition.fill
    store._partition_free[pid] = partition.capacity - partition.fill
    if partition.fill < partition.capacity:
        store._reopen_partition(pid)
    return reclaimed_bytes


def _reclaim(store: ObjectStore, oid: ObjectId, pid: PartitionId) -> int:
    obj = store.objects.pop(oid)
    placements = store.placements
    if placements.part_of(oid) != pid:
        store.objects[oid] = obj
        raise StoreError(f"object {oid} reclaimed from wrong partition")
    placements.discard(oid)

    size = obj.size
    if obj.dead:
        store.dead_bytes[pid] = store.dead_bytes.get(pid, 0) - size
    else:
        store.garbage.total_generated += size
        store.garbage.undeclared += size
    store.garbage.total_collected += size

    for target in obj.pointers.values():
        if target is None:
            continue
        tgt_pid = placements.part_of(target)
        if tgt_pid < 0 or tgt_pid == pid:
            continue
        if store.partitions[tgt_pid].forget(oid, target):
            store.remembered.forget_source(tgt_pid, oid)
    dropped = store.partitions[pid].drop_incoming(oid)
    if dropped:
        store.remembered.forget_sources(pid, dropped)
    store.roots.discard(oid)
    store.unlinked.discard(oid)
    store.remembered.drop_object(pid, oid)
    return size


def external_source_pages(store: ObjectStore, pid: PartitionId) -> set[PageId]:
    """Fix-up pages with one ``locate`` call per boundary source."""
    pages: set[PageId] = set()
    page_size = store.config.page_size
    for src in store.remembered.sources_in(pid):
        loc = store.placements.locate(src)
        if loc is None:
            continue
        src_pid, offset, size = loc
        first = offset // page_size
        last = (offset + size - 1) // page_size
        for index in range(first, last + 1):
            pages.add((src_pid, index))
    return pages
