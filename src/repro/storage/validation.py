"""Store invariant checking.

A :class:`StoreValidator` audits an :class:`~repro.storage.heap.ObjectStore`
for internal consistency: placement bookkeeping, remembered-set coverage,
garbage-accounting identities, and pointer sanity. The simulation engine can
run it periodically (``SimulationConfig.validate_every``) as a debug mode;
tests use it directly.

Checks are grouped into named invariants so a violation report says exactly
what broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.heap import ObjectStore


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant: str, detail: str) -> None:
        self.violations.append(f"[{invariant}] {detail}")

    def raise_if_failed(self) -> None:
        if not self.ok:
            summary = "\n".join(self.violations[:20])
            extra = len(self.violations) - 20
            if extra > 0:
                summary += f"\n... and {extra} more"
            raise StoreInvariantError(summary)


class StoreInvariantError(AssertionError):
    """Raised when a store fails validation in strict mode."""


class StoreValidator:
    """Audits every structural invariant of an object store."""

    def validate(self, store: ObjectStore) -> ValidationReport:
        report = ValidationReport()
        self._check_placements(store, report)
        self._check_partitions(store, report)
        self._check_pointers(store, report)
        self._check_remembered_sets(store, report)
        self._check_remembered_index(store, report)
        self._check_garbage_accounting(store, report)
        return report

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _check_placements(self, store: ObjectStore, report: ValidationReport) -> None:
        """Every object has one placement inside its partition's extent, of
        the object's own size (compaction lays survivors out from the
        placement sizes); placements within a partition never overlap."""
        if set(store.objects) != set(store.placements):
            missing = set(store.objects) ^ set(store.placements)
            report.add("placements", f"objects/placements mismatch: {sorted(missing)[:5]}")
            return
        for partition in store.partitions:
            spans = []
            for oid in partition.residents:
                placement = store.placements.get(oid)
                if placement is None or placement.partition != partition.pid:
                    report.add(
                        "placements",
                        f"resident {oid} of partition {partition.pid} misplaced",
                    )
                    continue
                size = store.objects[oid].size
                if placement.size != size:
                    report.add(
                        "placements",
                        f"object {oid}: placement size {placement.size} "
                        f"!= object size {size}",
                    )
                spans.append((placement.offset, placement.size, oid))
            cursor = 0
            for offset, size, oid in sorted(spans):
                if offset < cursor:
                    report.add(
                        "placements",
                        f"object {oid} overlaps previous extent in partition {partition.pid}",
                    )
                cursor = max(cursor, offset + size)
            if cursor > partition.fill:
                report.add(
                    "placements",
                    f"partition {partition.pid}: extents exceed fill "
                    f"({cursor} > {partition.fill})",
                )

    def _check_partitions(self, store: ObjectStore, report: ValidationReport) -> None:
        """Residents are exactly the objects placed in each partition; fill
        matches the sum of resident sizes plus dead space is impossible
        (bump allocation keeps fill equal to the high-water extent)."""
        by_partition: dict[int, set[int]] = {}
        for oid, placement in store.placements.items():
            by_partition.setdefault(placement.partition, set()).add(oid)
        for partition in store.partitions:
            expected = by_partition.get(partition.pid, set())
            if partition.residents != expected:
                report.add(
                    "partitions",
                    f"partition {partition.pid}: residents {len(partition.residents)} "
                    f"!= placements {len(expected)}",
                )
            if partition.fill > partition.capacity:
                report.add(
                    "partitions",
                    f"partition {partition.pid}: fill {partition.fill} exceeds "
                    f"capacity {partition.capacity}",
                )
            if partition.pointer_overwrites < 0:
                report.add(
                    "partitions",
                    f"partition {partition.pid}: negative FGS counter",
                )

    def _check_pointers(self, store: ObjectStore, report: ValidationReport) -> None:
        """Live (non-dead) objects never hold dangling pointers."""
        for oid, obj in store.objects.items():
            if obj.dead:
                continue  # dead objects may dangle into reclaimed space
            for target in obj.targets():
                if target not in store.objects:
                    report.add(
                        "pointers",
                        f"live object {oid} dangles to reclaimed {target}",
                    )

    def _check_remembered_sets(self, store: ObjectStore, report: ValidationReport) -> None:
        """Remembered sets contain exactly the live cross-partition edges
        (with correct multiplicity)."""
        expected: dict[int, dict[tuple[int, int], int]] = {}
        for oid, obj in store.objects.items():
            src_pid = store.placements[oid].partition
            for target in obj.targets():
                placement = store.placements.get(target)
                if placement is None or placement.partition == src_pid:
                    continue
                bucket = expected.setdefault(placement.partition, {})
                bucket[(oid, target)] = bucket.get((oid, target), 0) + 1
        for partition in store.partitions:
            actual: dict[tuple[int, int], int] = {}
            for target, sources in partition.incoming.items():
                for src, count in sources.items():
                    actual[(src, target)] = count
            want = expected.get(partition.pid, {})
            if actual != want:
                extra = {k: v for k, v in actual.items() if want.get(k) != v}
                missing = {k: v for k, v in want.items() if actual.get(k) != v}
                report.add(
                    "remembered-sets",
                    f"partition {partition.pid}: extra={list(extra.items())[:3]} "
                    f"missing={list(missing.items())[:3]}",
                )

    def _check_remembered_index(self, store: ObjectStore, report: ValidationReport) -> None:
        """The incremental frontier index (``store.remembered``) agrees with
        a brute-force heap scan: per-partition root membership and allocation
        pins partition the global sets, and the per-source boundary counts
        aggregate the per-target remembered sets exactly."""
        idx = store.remembered
        for partition in store.partitions:
            pid = partition.pid
            want_roots = {
                oid for oid in store.roots
                if store.placements[oid].partition == pid
            }
            if set(idx.roots_in(pid)) != want_roots:
                report.add(
                    "remembered-index",
                    f"partition {pid}: root membership "
                    f"{sorted(idx.roots_in(pid))[:5]} != {sorted(want_roots)[:5]}",
                )
            want_pins = {
                oid for oid in store.unlinked
                if store.placements[oid].partition == pid
            }
            if set(idx.pins_in(pid)) != want_pins:
                report.add(
                    "remembered-index",
                    f"partition {pid}: allocation pins "
                    f"{sorted(idx.pins_in(pid))[:5]} != {sorted(want_pins)[:5]}",
                )
            want_sources: dict[int, int] = {}
            for sources in partition.incoming.values():
                for src, count in sources.items():
                    want_sources[src] = want_sources.get(src, 0) + count
            if dict(idx.sources_in(pid)) != want_sources:
                report.add(
                    "remembered-index",
                    f"partition {pid}: boundary sources disagree with "
                    f"per-target remembered sets",
                )
        total_edges = sum(
            count
            for partition in store.partitions
            for sources in partition.incoming.values()
            for count in sources.values()
        )
        if idx.edges != total_edges:
            report.add(
                "remembered-index",
                f"edge count {idx.edges} != remembered references {total_edges}",
            )
        if idx.remembers_total - idx.forgets_total != idx.edges:
            report.add(
                "remembered-index",
                f"churn counters inconsistent: {idx.remembers_total} remembers "
                f"- {idx.forgets_total} forgets != {idx.edges} live edges",
            )

    def _check_garbage_accounting(self, store: ObjectStore, report: ValidationReport) -> None:
        """ActGarb identity and per-partition dead-byte ledger."""
        dead_total = sum(obj.size for obj in store.objects.values() if obj.dead)
        if store.actual_garbage_bytes != dead_total:
            report.add(
                "garbage",
                f"ActGarb {store.actual_garbage_bytes} != resident dead bytes {dead_total}",
            )
        if store.garbage.actual != (
            store.garbage.total_generated - store.garbage.total_collected
        ):
            report.add("garbage", "TotGarb - TotColl identity violated")
        per_partition = {}
        for oid, obj in store.objects.items():
            if obj.dead:
                pid = store.placements[oid].partition
                per_partition[pid] = per_partition.get(pid, 0) + obj.size
        for pid, partition_bytes in per_partition.items():
            ledger = store.dead_bytes.get(pid, 0)
            if ledger != partition_bytes:
                report.add(
                    "garbage",
                    f"partition {pid}: dead-byte ledger {ledger} != actual {partition_bytes}",
                )
        for pid, ledger in store.dead_bytes.items():
            if ledger and per_partition.get(pid, 0) != ledger:
                report.add(
                    "garbage",
                    f"partition {pid}: stale dead-byte ledger {ledger}",
                )


def validate_store(store: ObjectStore, strict: bool = True) -> ValidationReport:
    """Convenience wrapper: validate and (by default) raise on violations."""
    report = StoreValidator().validate(store)
    if strict:
        report.raise_if_failed()
    return report
