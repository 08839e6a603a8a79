"""The collector's kernels must equal their first implementations.

:mod:`collector_oracle` keeps the deque breadth-first trace, the
``put``/``bump`` relocation loop with per-object reclamation, and the
``locate``-per-source fix-up derivation. Over random heaps — null slots,
self-loops, cross-partition edges, duplicate roots, roots outside the
partition, and oids that live in the placement table's overflow dict
(negative or at least ``DENSE_CEILING``) — the current kernels must give
the same copy order, placement table, residents iteration order, reclaimed
bytes, remembered index and fix-up page set, through the inline
compaction path and through a precomputed ``CompactionPlan`` alike.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collector_oracle as oracle
from repro.core.fixed import FixedRatePolicy
from repro.faults.drill import state_digest
from repro.oo7.config import TINY
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import WorkloadSpec, build_workload
from repro.storage.heap import ObjectStore, StoreConfig, StoreError
from repro.storage.objtable import DENSE_CEILING
from repro.storage.traversal import breadth_first_order

_OIDS = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=-40, max_value=-1),
    st.integers(min_value=DENSE_CEILING, max_value=DENSE_CEILING + 40),
)


@st.composite
def heap_recipes(draw):
    """Everything needed to build one random heap, deterministically."""
    oids = draw(st.lists(_OIDS, min_size=1, max_size=40, unique=True))
    count = len(oids)
    index = st.integers(min_value=0, max_value=count - 1)
    return {
        "pages": draw(st.integers(min_value=2, max_value=8)),
        "objects": [
            (oid, draw(st.integers(min_value=10, max_value=300))) for oid in oids
        ],
        # (source, slot, target or None): None overwrites a slot with null,
        # and source == target makes a self-loop.
        "edges": draw(
            st.lists(
                st.tuples(
                    index,
                    st.integers(min_value=0, max_value=3),
                    st.one_of(st.none(), index),
                ),
                max_size=3 * count,
            )
        ),
        "roots": draw(st.lists(index, max_size=max(1, count // 3))),
        "dead": draw(st.lists(index, max_size=count)),
        "victims": draw(st.lists(st.integers(min_value=0, max_value=63),
                                 min_size=1, max_size=8)),
    }


def _build(recipe) -> ObjectStore:
    store = ObjectStore(
        StoreConfig(page_size=128, partition_pages=recipe["pages"], buffer_pages=3)
    )
    oids = [oid for oid, _size in recipe["objects"]]
    for oid, size in recipe["objects"]:
        store.create(size=size, oid=oid)
    for src, slot, target in recipe["edges"]:
        store.write_pointer(
            oids[src], f"s{slot}", None if target is None else oids[target]
        )
    for root in recipe["roots"]:
        store.register_root(oids[root])
    for dead in recipe["dead"]:
        store.declare_dead(oids[dead])
    return store


def _snapshot(store: ObjectStore):
    """Every structure a collection touches, order-sensitive where the
    structure's iteration order can reach an output."""
    remembered = store.remembered
    return (
        list(store.objects),
        store.placements._as_tuples(),
        len(store.placements),
        [
            (p.fill, list(p.residents), p.pointer_overwrites,
             [(t, list(s.items())) for t, s in p.incoming.items()])
            for p in store.partitions
        ],
        {pid: list(s) for pid, s in remembered._roots.items()},
        {pid: list(s) for pid, s in remembered._pins.items()},
        {pid: list(s.items()) for pid, s in remembered._sources.items()},
        (remembered.edges, remembered.remembers_total, remembered.forgets_total),
        list(store.roots),
        list(store.unlinked),
        list(store.dead_bytes.items()),
        (store.garbage.total_generated, store.garbage.total_collected,
         store.garbage.undeclared),
        store._allocated_bytes,
        list(store._partition_free),
        list(store._open_partitions),
        list(store.trace_epochs),
        store.compaction_epoch,
    )


def _trace(store, pid, bfs):
    roots = sorted(store.partition_roots(pid))
    return bfs(store.objects, roots, within=store.partitions[pid].residents)


@settings(max_examples=150, deadline=None)
@given(heap_recipes())
def test_collection_kernels_match_oracle(recipe):
    reference, inline, planned = _build(recipe), _build(recipe), _build(recipe)
    assert _snapshot(inline) == _snapshot(reference)
    for victim in recipe["victims"]:
        pid = victim % len(reference.partitions)

        expected_pages = oracle.external_source_pages(reference, pid)
        expected_order = _trace(reference, pid, oracle.breadth_first_order)
        expected_bytes = oracle.compact_partition(reference, pid, expected_order)

        assert inline.external_source_pages(pid) == expected_pages
        order = _trace(inline, pid, breadth_first_order)
        assert order == expected_order
        assert inline.compact_partition(pid, order) == expected_bytes

        assert planned.external_source_pages(pid) == expected_pages
        order = _trace(planned, pid, breadth_first_order)
        plan = planned.plan_compaction(pid, order)
        assert planned.compact_partition(pid, order, plan=plan) == expected_bytes

        expected = _snapshot(reference)
        assert _snapshot(inline) == expected
        assert _snapshot(planned) == expected


@settings(max_examples=150, deadline=None)
@given(heap_recipes(), st.data())
def test_trace_matches_oracle_on_arbitrary_roots(recipe, data):
    """Duplicate roots, roots in other partitions and ids that are not
    objects at all, over a partition domain or the whole heap."""
    store = _build(recipe)
    known = [oid for oid, _size in recipe["objects"]]
    roots = data.draw(
        st.lists(st.one_of(st.sampled_from(known), _OIDS), max_size=12)
    )
    pid = data.draw(st.integers(min_value=0, max_value=len(store.partitions) - 1))
    for within in (store.partitions[pid].residents, None):
        assert breadth_first_order(
            store.objects, roots, within=within
        ) == oracle.breadth_first_order(store.objects, roots, within=within)


def test_reclaim_from_wrong_partition_is_rejected_like_the_oracle():
    """A resident whose placement names another partition is refused, and
    the object stays in the object table (both implementations)."""
    messages = []
    for compact in (
        lambda store: store.compact_partition(0, []),
        lambda store: oracle.compact_partition(store, 0, []),
    ):
        store = ObjectStore(StoreConfig(page_size=128, partition_pages=2))
        first = store.create(size=100)
        other = store.create(size=200)  # does not fit: partition 1
        store.placements.parts[first] = 1
        with pytest.raises(StoreError) as excinfo:
            compact(store)
        messages.append(str(excinfo.value))
        assert first in store.objects and other in store.objects
    assert messages[0] == messages[1] == f"object {first} reclaimed from wrong partition"


def _oo7_run(**overrides):
    events = list(build_workload(WorkloadSpec("oo7", {"config": TINY}), 0))
    config = SimulationConfig(
        store=StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8),
        preamble_collections=0,
        **overrides,
    )
    sim = Simulation(policy=FixedRatePolicy(30), config=config)
    result = sim.run(events)
    assert result.summary.collections > 0
    return sim, (pickle.dumps(result.summary), state_digest(sim.store))


def test_oo7_runs_match_oracle_kernels_serial_and_parallel(monkeypatch):
    """A whole OO7 TINY run is pickle-equal with the oracle kernels
    patched in, and serial and parallel collection stay pickle-equal."""
    _sim, serial = _oo7_run()
    sim, parallel = _oo7_run(collection="parallel")
    assert parallel == serial
    assert sim._par.stats()["speculation_hits"] > 0  # plans were applied

    import repro.gc.collector as collector_module

    monkeypatch.setattr(
        collector_module, "breadth_first_order", oracle.breadth_first_order
    )
    monkeypatch.setattr(
        ObjectStore,
        "compact_partition",
        lambda store, pid, survivors, plan=None: oracle.compact_partition(
            store, pid, survivors
        ),
    )
    monkeypatch.setattr(
        ObjectStore, "external_source_pages", oracle.external_source_pages
    )
    _sim, reference = _oo7_run()
    assert reference == serial
