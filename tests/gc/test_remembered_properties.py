"""Property-based tests: incremental remembered sets vs from-scratch scans.

The contract of :mod:`repro.gc.remembered`: after *any* sequence of store
mutations, the incrementally maintained per-partition frontier (roots,
allocation pins, distinct boundary sources) equals what a full heap scan
recomputes from scratch (:mod:`frontier_oracle`) — and therefore the
collector and the oracle's :class:`~frontier_oracle.FullScanCollector`
trace the identical survivor set. Plus the documented conservatism caveat:
a cross-partition garbage cycle is retained by partition collection under
*both* frontiers and reclaimed only by ``collect_global``.
"""

import pickle

from frontier_oracle import FullScanCollector, full_scan_frontier
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.collector import CopyingCollector
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import validate_store

CFG = StoreConfig(page_size=128, partition_pages=4, buffer_pages=3)


# ---------------------------------------------------------------------------
# Random mutation sequences
#
# Ops are drawn as abstract (kind, raw indices) tuples and resolved against
# the live object population at application time (modular indexing), so a
# drawn sequence is always applicable regardless of what earlier ops
# created, reclaimed or expunged.
# ---------------------------------------------------------------------------

_IDX = st.integers(min_value=0, max_value=10**6)


@st.composite
def op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ("create", "create", "write", "write", "write",
                 "root", "collect", "expunge")
            )
        )
        if kind == "create":
            size = draw(st.integers(min_value=10, max_value=300))
            ops.append(("create", size, draw(_IDX)))
        elif kind == "write":
            target = draw(st.one_of(st.none(), _IDX))
            ops.append(("write", draw(_IDX), draw(st.integers(0, 3)), target))
        else:
            ops.append((kind, draw(_IDX)))
    return ops


def _apply_ops(store, collector, ops):
    """Interpret one abstract op sequence; yields after every applied op."""
    for op in ops:
        kind = op[0]
        live = sorted(store.objects)
        if kind == "create":
            _, size, raw = op
            pointers = None
            if live and raw % 3 == 0:  # sometimes link at birth
                pointers = {"slot0": live[raw % len(live)]}
            store.create(size=size, pointers=pointers)
        elif kind == "write":
            _, raw_src, slot, raw_target = op
            if not live:
                continue
            src = live[raw_src % len(live)]
            target = None if raw_target is None else live[raw_target % len(live)]
            store.write_pointer(src, f"slot{slot}", target)
        elif kind == "root":
            if not live:
                continue
            store.register_root(live[op[1] % len(live)])
        elif kind == "collect":
            if not store.partitions:
                continue
            collector.collect(op[1] % len(store.partitions))
        else:  # expunge: only creation rollbacks, i.e. still-unlinked objects
            pinned = sorted(store.unlinked)
            if not pinned:
                continue
            store.expunge(pinned[op[1] % len(pinned)])
        yield


def _partition_survivor_oracle(store, pid, roots):
    """Independent within-partition reachability (plain DFS, no shared code)."""
    residents = store.partitions[pid].residents
    seen = set()
    stack = [oid for oid in roots if oid in residents]
    while stack:
        oid = stack.pop()
        if oid in seen:
            continue
        seen.add(oid)
        for target in store.objects[oid].targets():
            if target in residents and target not in seen:
                stack.append(target)
    return seen


@settings(max_examples=40, deadline=None)
@given(op_sequences())
def test_incremental_frontier_matches_full_scan_after_every_op(ops):
    """After *every* mutation, the remembered-set frontier (roots and fix-up
    pages) of every partition equals the O(heap) from-scratch recomputation,
    and both frontiers trace the same survivor set."""
    store = ObjectStore(CFG)
    collector = CopyingCollector(store)
    for _ in _apply_ops(store, collector, ops):
        for pid in range(len(store.partitions)):
            scan_roots, scan_pages = full_scan_frontier(store, pid)
            incr_roots = store.partition_roots(pid)
            assert incr_roots == scan_roots
            assert store.external_source_pages(pid) == scan_pages
            assert _partition_survivor_oracle(
                store, pid, incr_roots
            ) == _partition_survivor_oracle(store, pid, scan_roots)


@settings(max_examples=40, deadline=None)
@given(op_sequences())
def test_remembered_index_equals_brute_force_boundary(ops):
    """The index holds exactly the live boundary edges: per partition, each
    external source mapped to its precise count of inward pointer slots —
    no stale entries, no missed edges, and churn totals that reconcile."""
    store = ObjectStore(CFG)
    collector = CopyingCollector(store)
    for _ in _apply_ops(store, collector, ops):
        pass

    expected: dict[int, dict[int, int]] = {}
    for src, obj in store.objects.items():
        src_pid = store.placements[src].partition
        for target in obj.targets():
            placement = store.placements.get(target)
            if placement is None or placement.partition == src_pid:
                continue
            per = expected.setdefault(placement.partition, {})
            per[src] = per.get(src, 0) + 1

    index = store.remembered
    for pid in range(len(store.partitions)):
        assert dict(index.sources_in(pid)) == expected.get(pid, {})
        placed_roots = {
            oid for oid in store.roots
            if store.placements[oid].partition == pid
        }
        placed_pins = {
            oid for oid in store.unlinked
            if store.placements[oid].partition == pid
        }
        assert set(index.roots_in(pid)) == placed_roots
        assert set(index.pins_in(pid)) == placed_pins

    assert index.edges == sum(
        count for per in expected.values() for count in per.values()
    )
    assert index.remembers_total - index.forgets_total == index.edges
    # The validator's remembered-index invariant agrees.
    assert validate_store(store).ok


@settings(max_examples=25, deadline=None)
@given(op_sequences())
def test_both_reachability_modes_reclaim_identically(ops):
    """Replaying one mutation sequence against the remembered-set collector
    and the full-scan oracle collector — collecting the same partitions at
    the same points — leaves byte-identical heaps and identical garbage
    accounting."""
    stores = []
    for collector_class in (CopyingCollector, FullScanCollector):
        store = ObjectStore(CFG)
        runner = _apply_ops(store, collector_class(store), ops)
        for _ in runner:
            pass
        stores.append(store)
    remembered, full = stores
    assert set(remembered.objects) == set(full.objects)
    assert remembered.placements == full.placements
    assert remembered.garbage == full.garbage
    assert remembered.actual_garbage_bytes == full.actual_garbage_bytes


# ---------------------------------------------------------------------------
# The conservatism caveat, pinned down exactly
# ---------------------------------------------------------------------------


def _cyclic_cross_partition_store():
    """Root → A (partition 0) ⇄ B (partition 1), then unlink the cycle.

    300-byte objects in 512-byte partitions force A and B apart; after the
    disconnecting write, A⇄B is a garbage cycle spanning the boundary.
    """
    store = ObjectStore(CFG)
    root = store.create(size=20)
    store.register_root(root)
    a = store.create(size=300)
    b = store.create(size=300)
    assert store.placements[a].partition != store.placements[b].partition
    store.write_pointer(root, "ref", a)
    store.write_pointer(a, "peer", b)
    store.write_pointer(b, "peer", a)
    store.write_pointer(root, "ref", None, dies=(a, b))
    return store, root, a, b


def test_cross_partition_cycle_is_retained_by_both_modes():
    """Partition collection never reclaims a cross-partition garbage cycle:
    each member is remembered-in from the other partition, so it is a
    conservative root there — under the incremental index and under the
    full-scan oracle alike. This is the documented cost of O(partition)
    collection, not a remembered-set defect."""
    for collector_class in (CopyingCollector, FullScanCollector):
        store, root, a, b = _cyclic_cross_partition_store()
        collector = collector_class(store)
        for _round in range(3):
            for pid in range(len(store.partitions)):
                collector.collect(pid)
        assert set(store.objects) == {root, a, b}, collector_class.__name__
        # The oracle agrees the cycle is garbage — it is *uncollected*, not
        # live: actual garbage stays on the books until a global pass.
        assert store.actual_garbage_bytes == 600
        assert validate_store(store).ok


def test_collect_global_reclaims_the_cycle():
    """The whole-database marking pass is the escape hatch: it sees the
    cycle is unreachable from the true root set and reclaims it."""
    store, root, a, b = _cyclic_cross_partition_store()
    CopyingCollector(store).collect_global()
    assert set(store.objects) == {root}
    assert store.actual_garbage_bytes == 0
    assert validate_store(store).ok


# ---------------------------------------------------------------------------
# Remembered vs full-scan frontier on a real experiment cell
# ---------------------------------------------------------------------------


def _run_cell(collector_class) -> bytes:
    from repro.experiments.common import oo7_spec
    from repro.oo7.config import TINY
    from repro.sim.simulator import Simulation
    from repro.sim.spec import PolicySpec, build_workload

    spec = oo7_spec(PolicySpec("fixed", {"overwrites_per_collection": 40.0}), TINY, 2)
    policy, _, selection = spec.resolve(0)
    sim = Simulation(policy=policy, selection=selection, config=spec.sim)
    sim.collector = collector_class(sim.store)
    return pickle.dumps(sim.run(build_workload(spec.workload, 0)).summary)


def test_modes_produce_pickle_identical_summaries():
    assert _run_cell(CopyingCollector) == _run_cell(FullScanCollector)


#: The fingerprint this cell had under both ``reachability`` modes
#: (``remembered``, ``full``) while ``SimulationConfig.reachability``
#: existed; dropping the switch must leave cached results addressable.
_CELL_FINGERPRINT = "e764dc1cc44b0b0cd2adfaca21afd47b17197019a008a5e0863e8dafeb2a4e73"


def test_reachability_mode_does_not_perturb_fingerprints():
    """The frontier is an implementation detail, not an experiment input."""
    from repro.experiments.common import oo7_spec
    from repro.oo7.config import TINY
    from repro.sim.cache import spec_fingerprint
    from repro.sim.spec import PolicySpec

    spec = oo7_spec(PolicySpec("fixed", {"overwrites_per_collection": 40.0}), TINY, 2)
    assert spec_fingerprint(spec, 0) == _CELL_FINGERPRINT


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


def test_run_telemetry_carries_remembered_gauges(tmp_path):
    from repro.experiments.common import oo7_spec
    from repro.obs.telemetry import load_telemetry
    from repro.oo7.config import TINY
    from repro.sim.engine import run_experiment
    from repro.sim.spec import PolicySpec

    spec = oo7_spec(PolicySpec("fixed", {"overwrites_per_collection": 40.0}), TINY, 2)
    agg = run_experiment(spec, seeds=[1], jobs=1, telemetry=tmp_path)
    records = load_telemetry(agg.telemetry_paths[0])
    gauges = next(r for r in records if r["type"] == "metrics")["gauges"]
    for key in (
        "gc.remembered.edges",
        "gc.remembered.sources",
        "gc.remembered.roots",
        "gc.remembered.pins",
        "gc.remembered.remembers_total",
        "gc.remembered.forgets_total",
        "gc.remembered.traced_objects_total",
        "gc.remembered.heap_objects_total",
        "gc.remembered.traced_vs_heap",
    ):
        assert key in gauges, key
    assert gauges["gc.remembered.remembers_total"] >= gauges["gc.remembered.edges"]
    assert 0.0 < gauges["gc.remembered.traced_vs_heap"] <= 1.0
