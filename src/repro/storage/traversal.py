"""Shared pointer-graph traversal.

Both reachability paths of the collector — the partition-local Cheney trace
(:meth:`repro.gc.collector.CopyingCollector.collect`, and its speculative
twin in :mod:`repro.gc.parallel`) and the whole-heap marking pass
(:meth:`~repro.storage.heap.ObjectStore.reachable_from`, used by
``collect_global`` and the verification oracles) — are the same
breadth-first scan differing only in their traversal domain. This module
holds the single implementation.

The scan is Cheney's: the output list *is* the queue. A scan pointer walks
the list while newly reached objects are appended behind it, so there is
no separate work queue. Membership is one set: ``unseen`` starts as a copy
of the domain and each reached object is removed from it, so every edge
costs a single ``target in unseen`` test — it covers "inside the domain",
"not yet reached" and "not null" at once (``None`` is never a member).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.storage.object_model import ObjectId, StoredObject


def breadth_first_order(
    objects: Mapping[ObjectId, StoredObject],
    roots: Iterable[ObjectId],
    within: Optional[Iterable[ObjectId]] = None,
) -> list[ObjectId]:
    """Deterministic breadth-first traversal of the heap's pointer graph.

    Args:
        objects: The store's object table (oid → object).
        roots: Traversal starts here, in the given order — callers wanting
            deterministic copy order pass roots pre-sorted. Roots outside
            the domain are skipped (partitioned collection's conservative
            root sets can mention ids filtered by ``within``), and so are
            repeated roots.
        within: Optional traversal domain — only members are visited and
            enqueued (the collector passes a partition's residents, so
            pointers leaving the partition are not traversed, §3.1).
            ``None`` traverses the whole object table. The domain is
            copied once, so it must hold only object ids.

    Returns:
        Every reached object id, in visit (Cheney copy) order.
    """
    unseen = set(objects if within is None else within)
    reach = unseen.remove
    order: list[ObjectId] = []
    append = order.append
    for oid in roots:
        if oid in unseen:
            reach(oid)
            append(oid)
    # Hot loop: the list grows behind the scan pointer (list iteration
    # re-reads the length each step), and each edge is one set probe.
    for oid in order:
        for target in objects[oid].pointers.values():
            if target in unseen:
                reach(target)
                append(target)
    return order
