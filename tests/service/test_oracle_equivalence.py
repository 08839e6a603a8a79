"""The service on the batched interpreter equals the per-event oracle.

``GcService.run`` feeds stream events one at a time into the fused
interpreter (or its guarded mode); :class:`service_oracle.OracleService`
is the per-event loop it replaced. Over tenant and grammar streams with
explicit transactions and aborts, random checkpoint cadences, log bounds,
``max_events`` windows, shutdown at a random index and pacing, both must
produce the same report (wall-clock fields aside), final digest, sampler
summary, redo log, WAL statistics and transaction counters. Two contract
tests pin how the service consumes its stream: it never pulls an event
before it has applied the previous one, and its column window stays
bounded however long the stream runs.
"""

import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from service_oracle import OracleService

from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import soak
from repro.service.server import _WINDOW_EVENTS, GcService, ServiceConfig
from repro.service.stream import (
    ReplayableStream,
    finite_stream,
    grammar_stream,
    tenant_stream,
)
from repro.sim import batch
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.storage.heap import StoreConfig
from repro.workload.tenants import _remap_event, make_profile, tenant_mix
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)

POLICIES = (
    PolicySpec("fixed", {"overwrites_per_collection": 60.0}),
    PolicySpec("saga", {"garbage_fraction": 0.2}),
    # SAIO runs on the application-I/O clock, which every auto-commit's
    # WAL force advances.
    PolicySpec("saio", {"io_fraction": 0.1}),
)


def _base_events(kind, seed, n):
    if kind == "tenant":
        config = tenant_mix(["oltp-churn", "read-browse"], scale=0.2)
        stream = tenant_stream(config, seed=seed)
    else:
        stream = grammar_stream(make_profile("oltp-churn", scale=0.2), seed=seed)
    return list(itertools.islice(stream.events_from(), n))


def _with_transactions(events, seed, transactions):
    """Interleave a transactional workload's blocks (commits and aborts)
    into ``events``, in an oid range of its own."""
    if not transactions:
        return events
    offset = 1 + max(
        (e.oid for e in events if type(e).__name__ == "CreateEvent"), default=0
    )
    spec = TransactionalSpec(
        transactions=transactions,
        ops_per_transaction=3,
        abort_probability=0.4,
        cluster_size=3,
        object_size=96,
    )
    units, block = [], None
    for event in TransactionalWorkload(spec, seed=seed, initial_clusters=3).events():
        event = _remap_event(event, 1, offset, "tx")
        name = type(event).__name__
        if name == "BeginTransactionEvent":
            block = [event]
        elif block is not None:
            block.append(event)
            if name in ("CommitTransactionEvent", "AbortTransactionEvent"):
                units.append(block)
                block = None
        else:
            units.append([event])
    rng = random.Random(seed)
    merged = []
    for event in events:
        if units and rng.random() < 0.08:
            merged.extend(units.pop(0))
        merged.append(event)
    for unit in units:
        merged.extend(unit)
    return merged


def _shutdown_stream(events, at, holder):
    """A stream that asks ``holder["svc"]`` to shut down as it hands over
    event ``at``."""

    def factory():
        for index, event in enumerate(events):
            if index == at:
                holder["svc"].request_shutdown()
            yield event

    return ReplayableStream(factory=factory, label="shutdown")


def _outcome(cls, events, policy, knobs, *, shutdown_at=None, sim_config=None):
    holder = {}
    stream = (
        _shutdown_stream(events, shutdown_at, holder)
        if shutdown_at is not None
        else finite_stream(events)
    )
    svc = cls(
        policy=build_policy(policy, 1),
        stream=stream,
        sim_config=sim_config or SimulationConfig(store=STORE),
        service=ServiceConfig(**knobs),
    )
    holder["svc"] = svc
    report = dataclasses.asdict(svc.run())
    report.pop("wall_s")
    report.pop("paced_sleep_s")
    sim = svc.sim
    log = sim.redo_log
    return {
        "report": report,
        "summary": pickle.dumps(sim.sampler.summary(sim.store, sim.store.iostats)),
        "redo": (
            log.records,
            log.appended_total,
            log.truncated_total,
            log.checkpoints_installed,
        ),
        "wal": sim.tx.wal.stats,
        "tx": (sim.tx.committed, sim.tx.aborted, sim._auto_txid),
    }


def _assert_same(events, policy, knobs, **kwargs):
    new = _outcome(GcService, events, policy, knobs, **kwargs)
    old = _outcome(OracleService, events, policy, knobs, **kwargs)
    for key in old:
        assert new[key] == old[key], key
    return new


@given(
    kind=st.sampled_from(["tenant", "grammar"]),
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=200, max_value=2500),
    transactions=st.integers(min_value=0, max_value=12),
    policy=st.sampled_from(POLICIES),
    every=st.integers(min_value=1, max_value=1500),
    max_log=st.one_of(st.none(), st.integers(min_value=1, max_value=800)),
    max_events=st.one_of(st.none(), st.integers(min_value=0, max_value=2600)),
    shutdown_frac=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    # Parallel collection runs the guarded per-event path.
    collection=st.sampled_from(["serial", "parallel"]),
)
@example(  # checkpoint WAL writes move SAIO's clock; an idle event follows
    kind="tenant", seed=0, n=283, transactions=2, policy=POLICIES[2], every=1,
    max_log=None, max_events=None, shutdown_frac=None, collection="serial",
)
@settings(max_examples=60, deadline=None)
def test_service_matches_oracle(
    kind, seed, n, transactions, policy, every, max_log, max_events,
    shutdown_frac, collection,
):
    events = _with_transactions(_base_events(kind, seed, n), seed, transactions)
    config = SimulationConfig(store=STORE, collection=collection)
    knobs = dict(
        checkpoint_every_events=every,
        max_log_records=max_log,
        max_events=max_events,
    )
    shutdown_at = (
        None if shutdown_frac is None else int(shutdown_frac * (len(events) - 1))
    )
    _assert_same(events, policy, knobs, shutdown_at=shutdown_at, sim_config=config)


def test_paced_service_matches_oracle():
    events = _with_transactions(_base_events("tenant", 3, 1500), 3, 6)
    knobs = dict(checkpoint_every_events=400, target_ops_per_s=40_000.0)
    _assert_same(events, POLICIES[1], knobs)


@pytest.mark.parametrize("mode", ["shed", "delay"])
def test_backpressure_matches_oracle(mode):
    """Admission control runs on the guarded path: every shedding decision
    and counter must still match the per-event loop."""
    events = _with_transactions(_base_events("grammar", 4, 6000), 4, 20)
    knobs = dict(
        checkpoint_every_events=1000, max_heap_bytes=12_000, backpressure=mode
    )
    outcome = _assert_same(events, POLICIES[0], knobs)
    assert outcome["report"]["backpressure"]["shed_events"] > 0


def test_parallel_collection_matches_oracle():
    events = _with_transactions(_base_events("tenant", 8, 3000), 8, 8)
    config = SimulationConfig(store=STORE, collection="parallel", gc_workers=2)
    _assert_same(
        events, POLICIES[0], dict(checkpoint_every_events=700), sim_config=config
    )


def test_soak_drill_matches_oracle(monkeypatch):
    """A crash soak (guarded, with recovery) reports what the oracle does."""
    stream = grammar_stream(make_profile("oltp-churn", scale=0.3), seed=5)
    plan = FaultPlan(
        faults=(
            FaultSpec(site="tx.commit", at=700),
            FaultSpec(site="io.write", at=1500),
            FaultSpec(site="gc.collect", at=3),
        ),
        seed=2,
    )

    def drill():
        report = soak.run_soak_drill(
            stream,
            POLICIES[0],
            seed=1,
            sim_config=SimulationConfig(store=STORE),
            service=ServiceConfig(max_events=5000, checkpoint_every_events=800),
            plan=plan,
        )
        fields = dataclasses.asdict(report)
        for segment in ("final_segment", "reference"):
            fields[segment].pop("wall_s")
            fields[segment].pop("paced_sleep_s")
        return fields

    new = drill()
    monkeypatch.setattr(soak, "GcService", OracleService)
    old = drill()
    assert new["crashes"] >= 2
    assert new == old


# ------------------------------------------------------------- contracts


class _PullRecorder:
    """Wraps a finite stream; at each pull it records what the service has
    applied so far, from state the fast interpreter updates in place (the
    object table, the collector, the log's checkpoints), and checks that
    the previous event's effect is already visible."""

    def __init__(self, events):
        self.events = events
        self.service = None
        self.seen = []

    def stream(self):
        def factory():
            previous = None
            for event in self.events:
                sim = self.service.sim
                if type(previous).__name__ == "CreateEvent":
                    assert previous.oid in sim.store.objects
                if type(event).__name__ == "CreateEvent":
                    assert event.oid not in sim.store.objects
                self.seen.append((
                    len(sim.store.objects),
                    sim.collector.collections_performed,
                    sim.redo_log.checkpoints_installed,
                ))
                previous = event
                yield event

        return ReplayableStream(factory=factory, label="recorded")


def _pulls(cls, events):
    recorder = _PullRecorder(events)
    svc = cls(
        policy=build_policy(POLICIES[1], 1),
        stream=recorder.stream(),
        sim_config=SimulationConfig(store=STORE),
        service=ServiceConfig(checkpoint_every_events=1000),
    )
    recorder.service = svc
    svc.run()
    return recorder.seen


def test_apply_before_pull():
    """Event k+1 is pulled only after event k — and every collection and
    checkpoint it triggered — has been applied, exactly as the per-event
    loop did."""
    events = _base_events("tenant", 2, 4000)
    new = _pulls(GcService, events)
    assert len(new) == len(events)
    assert new[-1][1] > 0 and new[-1][2] > 0  # collections and checkpoints
    assert new == _pulls(OracleService, events)


def test_window_stays_bounded(monkeypatch):
    """The column window is recycled: it never holds more than a bounded
    number of events, over a stream several checkpoints long."""
    longest = []
    original = batch.replay_window

    def spy(sim, window, feed, fast):
        original(sim, window, feed, fast)
        longest.append(len(window.ops))

    monkeypatch.setattr("repro.service.server.replay_window", spy)
    svc = GcService(
        policy=build_policy(POLICIES[0], 1),
        stream=grammar_stream(make_profile("oltp-churn", scale=0.3), seed=6),
        sim_config=SimulationConfig(store=STORE),
        service=ServiceConfig(max_events=40_000, checkpoint_every_events=10_000),
    )
    report = svc.run()
    assert report.checkpoints >= 4
    assert max(longest) <= _WINDOW_EVENTS
    assert len(longest) > report.checkpoints  # also recycled between them
