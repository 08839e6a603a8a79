"""The partition-parallel collector must be invisible.

``repro.gc.parallel`` pre-traces likely victim partitions during the
trigger's margin window and validates each speculation against the
store's trace epochs before use; these tests pin the contract that makes
``collection="parallel"`` safe to enable at any worker count:
byte-identical ``SimulationSummary`` pickles and identical committed
store state versus the serial collector — across selection policies,
worker counts, transactional rollback, crash/recovery drills and service
mode — with no effect on result-cache fingerprints and no mutation of
policy state by victim prediction. Every serial reference run replays
through the per-event oracle :mod:`scalar_oracle`, so each comparison also
checks the batched interpreter that ``Simulation.run`` drives.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import run_scalar

from repro.core.fixed import FixedRatePolicy
from repro.events import (
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
)
from repro.faults.drill import state_digest
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gc.parallel import (
    COLLECTION_MODES,
    DEFAULT_GC_MARGIN,
    ParallelCollectionScheduler,
    peek_selection,
)
from repro.gc.selection import (
    PartitionSelectionPolicy,
    RandomSelection,
    RoundRobinSelection,
    make_selection_policy,
)
from repro.oo7.config import TINY
from repro.sim.cache import spec_fingerprint
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    ExperimentSpec,
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
)
from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.recovery import RedoLog, recover
from repro.workload.compiled import compile_trace
from repro.workload.presets import PresetWorkload
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

STORE = StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8)

# ---------------------------------------------------------------- helpers


def _config(**overrides) -> SimulationConfig:
    defaults = dict(store=STORE, preamble_collections=0)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _run(workload_events, *, selection="updated-pointer", rate=40.0, seed=7,
         **overrides):
    """``Simulation.run`` for parallel collection; the scalar oracle for
    the serial reference."""
    config = _config(**overrides)
    sim = Simulation(
        policy=FixedRatePolicy(rate),
        selection=make_selection_policy(selection, seed=seed),
        config=config,
    )
    if config.collection == "serial":
        return sim, run_scalar(sim, workload_events)
    return sim, sim.run(workload_events)


def _preset_events(seed=7):
    return list(PresetWorkload("steady-churn", scale=0.4, seed=seed).events())


def _outcome(sim, result):
    return pickle.dumps(result.summary), state_digest(sim.store)


# ------------------------------------------------- serial equivalence


@pytest.mark.parametrize("selection", ["updated-pointer", "round-robin", "random"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_matches_serial_across_policies_and_workers(selection, workers):
    events = _preset_events()
    serial = _outcome(*_run(events, selection=selection))
    sim_p, res_p = _run(
        events, selection=selection, collection="parallel", gc_workers=workers
    )
    assert _outcome(sim_p, res_p) == serial
    assert res_p.summary.collections > 0, "the workload must trigger GC"


def test_speculation_actually_engages():
    """The equivalence tests are vacuous if every snapshot goes stale."""
    events = _preset_events()
    sim, res = _run(events, collection="parallel")
    stats = sim._par.stats()
    assert stats["pumps"] > 0
    assert stats["speculation_hits"] > 0, stats
    assert (
        stats["speculation_hits"]
        + stats["speculation_stale"]
        + stats["speculation_misses"]
        == res.summary.collections
    )


def test_parallel_matches_serial_under_batched_replay():
    """Parallel sims take the guarded per-event interpreter over an
    already-compiled trace; results match the serial scalar oracle."""
    events = _preset_events()
    trace = compile_trace(events)
    serial = _outcome(*_run(events))
    parallel = _outcome(*_run(trace, collection="parallel", gc_workers=4))
    assert parallel == serial


def test_parallel_matches_serial_transactional_rollback():
    """Aborted transactions undo pointer writes and expunge creations —
    both bump trace epochs, so speculation over rolled-back state must
    still validate correctly."""
    spec = TransactionalSpec(transactions=60, abort_probability=0.4)
    events = list(TransactionalWorkload(spec, seed=3, initial_clusters=20).events())
    serial = _outcome(*_run(events, rate=25.0))
    for workers in (1, 4):
        parallel = _outcome(
            *_run(events, rate=25.0, collection="parallel", gc_workers=workers)
        )
        assert parallel == serial


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([1, 2, 4]),
    selection=st.sampled_from(["updated-pointer", "round-robin", "random"]),
)
@settings(max_examples=20, deadline=None)
def test_property_summaries_pickle_equal(seed, workers, selection):
    events = list(PresetWorkload("steady-churn", scale=0.25, seed=seed).events())
    serial = _outcome(*_run(events, selection=selection, seed=seed))
    parallel = _outcome(
        *_run(
            events,
            selection=selection,
            seed=seed,
            collection="parallel",
            gc_workers=workers,
        )
    )
    assert parallel == serial


# ------------------------------------------------- crash drills


@pytest.mark.parametrize("workers", [1, 4])
def test_crash_drill_matches_serial(workers):
    """Fault-injected crash–recover–continue runs must be identical:
    same resume indices, same committed state, same summary."""
    spec = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 30.0}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=_config(enable_redo_log=True),
        label="parallel-drill",
    )
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=2),))

    def drilled(collection, gc_workers):
        injector = FaultInjector(plan)
        log = RedoLog()
        config = dataclasses.replace(
            spec.sim, collection=collection, gc_workers=gc_workers
        )
        sim = Simulation(
            policy=build_policy(spec.policy, 0),
            selection=build_selection(spec.selection, 0),
            config=config,
            faults=injector,
            redo_log=log,
        )
        start = 0
        resumes = []
        while True:
            try:
                if collection == "serial":
                    run_scalar(sim, events, start_index=start)
                else:
                    sim.run(trace, start_index=start)
                break
            except SimulatedCrash as crash:
                assert len(resumes) < 10, "unexpectedly many crashes"
                recovered = recover(log, store_config=config.store)
                log.truncate_uncommitted()
                start = crash.resume_index
                resumes.append(start)
                sim = Simulation(
                    policy=build_policy(spec.policy, 0),
                    selection=build_selection(spec.selection, 0),
                    config=config,
                    faults=injector,
                    store=recovered,
                    redo_log=log,
                )
        summary = sim.sampler.summary(sim.store, sim.store.iostats)
        return resumes, state_digest(sim.store), pickle.dumps(summary)

    serial = drilled("serial", 1)
    assert serial[0], "the plan must actually crash the run"
    assert drilled("parallel", gc_workers=workers) == serial


# ------------------------------------------------- victim prediction


def test_peek_selection_predicts_without_consuming_rng():
    store = ObjectStore(STORE)
    root = store.create(size=64)
    store.register_root(root)
    for _ in range(40):
        store.create(size=400)
    policy = RandomSelection(seed=13)
    state_before = policy._rng.getstate()
    predicted = peek_selection(policy, store)
    assert policy._rng.getstate() == state_before
    assert policy.select(store) == predicted


def test_peek_selection_preserves_round_robin_cursor():
    store = ObjectStore(STORE)
    root = store.create(size=64)
    store.register_root(root)
    for _ in range(40):
        store.create(size=400)
    policy = RoundRobinSelection()
    predicted = peek_selection(policy, store)
    assert policy._last == -1, "peek must not advance the cursor"
    assert policy.select(store) == predicted
    # After the real draw advanced the cursor, peek tracks the next victim.
    assert peek_selection(policy, store) == policy.select(store)


def test_peek_selection_unknown_policy_declines():
    class CustomSelection(PartitionSelectionPolicy):
        def select(self, store):  # pragma: no cover - never called
            return 0

        def describe(self):
            return "custom"

    store = ObjectStore(STORE)
    assert peek_selection(CustomSelection(), store) is None


def test_unknown_policy_runs_serial_path_inline():
    """No prediction → every collection is a speculation miss, but the
    run still completes with serial-identical results."""

    class EveryOther(PartitionSelectionPolicy):
        """Deterministic custom policy the scheduler cannot peek."""

        def __init__(self):
            self._flip = 0

        def select(self, store):
            candidates = [p.pid for p in store.partitions if p.residents]
            self._flip += 1
            return candidates[self._flip % len(candidates)]

        def describe(self):
            return "every-other"

    events = _preset_events()

    def run(collection, workers):
        sim = Simulation(
            policy=FixedRatePolicy(40.0),
            selection=EveryOther(),
            config=_config(collection=collection, gc_workers=workers),
        )
        if collection == "serial":
            return sim, run_scalar(sim, events)
        return sim, sim.run(events)

    serial = _outcome(*run("serial", 1))
    sim_p, res_p = run("parallel", 4)
    assert _outcome(sim_p, res_p) == serial
    stats = sim_p._par.stats()
    assert stats["speculation_hits"] == 0
    assert stats["speculation_misses"] == res_p.summary.collections


# ------------------------------------------------- trace epochs


def test_mutations_bump_trace_epochs():
    store = ObjectStore(STORE)
    a = store.create(size=64)
    pid = store.placements.part_of(a)
    before = store.trace_epochs[pid]
    store.register_root(a)
    assert store.trace_epochs[pid] > before

    before = store.trace_epochs[pid]
    b = store.create(size=64)
    store.write_pointer(a, "x", b)
    assert store.trace_epochs[pid] > before

    # Declaring garbage does not affect the trace (the dead flag is not
    # part of reachability), so it must not invalidate speculation.
    before = list(store.trace_epochs)
    store.write_pointer(a, "x", None, dies=[b])
    after_write = list(store.trace_epochs)
    assert after_write != before  # the overwrite itself bumps

    before_ep = store.compaction_epoch
    from repro.gc.collector import CopyingCollector

    CopyingCollector(store).collect(pid)
    assert store.compaction_epoch > before_ep


def test_stale_speculation_is_discarded():
    """Mutating the victim between snapshot and apply forces the serial
    fallback — and the collection is still correct."""
    store = ObjectStore(STORE)
    from repro.gc.collector import CopyingCollector
    from repro.gc.selection import UpdatedPointerSelection

    root = store.create(size=50)
    store.register_root(root)
    doomed = store.create(size=200)
    store.write_pointer(root, "x", doomed)
    collector = CopyingCollector(store)
    scheduler = ParallelCollectionScheduler(
        store, collector, UpdatedPointerSelection(), workers=1
    )
    scheduler.pump()
    # Invalidate: sever the pointer, making `doomed` garbage.
    store.write_pointer(root, "x", None, dies=[doomed])
    result = scheduler.collect(0)
    assert scheduler.speculation_stale == 1
    assert result.reclaimed_objects == 1
    assert doomed not in store.objects


# ------------------------------------------------- config plumbing


def test_invalid_collection_mode_rejected():
    with pytest.raises(ValueError, match="collection"):
        Simulation(
            policy=FixedRatePolicy(10),
            config=_config(collection="concurrent"),
        )


def test_gc_workers_without_parallel_rejected():
    with pytest.raises(ValueError, match="gc_workers"):
        Simulation(
            policy=FixedRatePolicy(10),
            config=_config(collection="serial", gc_workers=2),
        )


def test_scheduler_validates_arguments():
    store = ObjectStore(STORE)
    from repro.gc.collector import CopyingCollector
    from repro.gc.selection import UpdatedPointerSelection

    collector = CopyingCollector(store)
    with pytest.raises(ValueError, match="gc_workers"):
        ParallelCollectionScheduler(
            store, collector, UpdatedPointerSelection(), workers=0
        )
    with pytest.raises(ValueError, match="margin"):
        ParallelCollectionScheduler(
            store, collector, UpdatedPointerSelection(), margin=1.0
        )
    assert "serial" in COLLECTION_MODES and "parallel" in COLLECTION_MODES
    assert 0.0 <= DEFAULT_GC_MARGIN < 1.0


def test_collection_choice_does_not_change_fingerprint():
    """Execution strategy is not an experiment input."""
    spec = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 50.0}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=_config(),
        label="fingerprint-invariance",
    )
    prints = {
        spec_fingerprint(
            dataclasses.replace(
                spec,
                sim=dataclasses.replace(
                    spec.sim, collection=collection, gc_workers=workers
                ),
            ),
            seed=0,
        )
        for collection, workers in [
            ("serial", 1),
            ("parallel", 1),
            ("parallel", 4),
        ]
    }
    assert len(prints) == 1
