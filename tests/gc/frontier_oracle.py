"""The from-scratch collection frontier, kept as the remembered-set oracle.

:meth:`repro.gc.collector.CopyingCollector.prepare` reads each partition's
frontier — conservative roots and external fix-up pages — out of the
store's incrementally maintained remembered-set index
(:mod:`repro.gc.remembered`) in O(partition + boundary). It used to be able
to recompute the same frontier by scanning the whole heap per collection;
that scan lives on here as :func:`full_scan_frontier`, and
:class:`FullScanCollector` is a collector whose ``prepare`` reads it, so
tests can demand that both derivations trace and reclaim identically.
"""

from __future__ import annotations

from repro.gc.collector import CopyingCollector


def full_scan_frontier(store, pid):
    """From-scratch recomputation of partition ``pid``'s collection frontier.

    Scans the *entire heap* to derive:

    * the conservative root set — database roots and allocation pins
      resident in ``pid``, plus every resident targeted by a pointer held
      outside the partition;
    * the external fix-up pages — pages of every external object holding at
      least one pointer into ``pid`` (compaction relocates their referents,
      so each needs a read-modify-write).
    """
    partition = store.partitions[pid]
    residents = partition.residents
    roots = store.roots & residents
    roots |= store.unlinked & residents
    page_size = store.config.page_size
    locate = store.placements.locate
    pages = set()
    for src, obj in store.objects.items():
        loc = locate(src)
        if loc is None or loc[0] == pid:
            continue
        referenced = False
        for target in obj.targets():
            if target in residents:
                roots.add(target)
                referenced = True
        if referenced:
            src_pid, offset, size = loc
            first = offset // page_size
            last = (offset + size - 1) // page_size
            for index in range(first, last + 1):
                pages.add((src_pid, index))
    return roots, pages


class FullScanCollector(CopyingCollector):
    """A :class:`CopyingCollector` whose frontier comes from the heap scan."""

    def prepare(self, pid):
        roots, fixup_pages = full_scan_frontier(self._store, pid)
        return self._trace_survivors(pid, roots), fixup_pages
