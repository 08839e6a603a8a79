"""The batched replay interpreter must be invisible.

``repro.sim.batch`` slices a :class:`~repro.workload.compiled.
CompiledTrace` into runs and replays them with bulk kernels; it is the
only interpreter behind ``Simulation.run``. These tests pin its contract:
byte-identical ``SimulationSummary`` pickles and identical committed store
state versus the per-event oracle :mod:`scalar_oracle` — across preset,
grammar and tenant-mix workloads, from any ``start_index``, under
crash/recovery drills, with and without numpy, and with no effect on
service-mode backpressure decisions.
"""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import run_scalar
from service_oracle import OracleService

from repro.events import (
    AccessEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.drill import state_digest
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.oo7.config import TINY
from repro.service.server import GcService, ServiceConfig
from repro.service.stream import grammar_stream, tenant_stream
from repro.sim.batch import _fast_eligible
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
from repro.storage.heap import StoreConfig, StoreError
from repro.tx.recovery import RedoLog, recover
from repro.workload.compiled import compile_trace
from repro.workload.tenants import make_profile, tenant_mix
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

# ---------------------------------------------------------------- helpers


def _spec(rate=50.0, **sim_overrides):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SimulationConfig(
            store=StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4),
            preamble_collections=0,
            **sim_overrides,
        ),
        label="batch-replay-test",
    )


def _run(spec, replayable, *, oracle=False, seed=0, start_index=0):
    """One simulation, through ``Simulation.run`` or the scalar oracle."""
    sim = Simulation(
        policy=build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=spec.sim,
    )
    if oracle:
        result = run_scalar(sim, replayable, start_index=start_index)
    else:
        result = sim.run(replayable, start_index=start_index)
    return sim, result


def _assert_equivalent(spec, events, *, seed=0):
    """Scalar oracle over the event list == batched over the compiled trace."""
    trace = compile_trace(events)
    sim_s, res_s = _run(spec, events, oracle=True, seed=seed)
    sim_b, res_b = _run(spec, trace, seed=seed)
    assert pickle.dumps(res_b.summary) == pickle.dumps(res_s.summary)
    assert state_digest(sim_b.store) == state_digest(sim_s.store)
    return res_s


# ------------------------------------------------- workload equivalence


@pytest.mark.parametrize("rate", [30.0, 200.0])
def test_oo7_preset_equivalence(rate):
    spec = _spec(rate=rate)
    events = list(build_workload(spec.workload, 0))
    result = _assert_equivalent(spec, events)
    assert result.summary.collections > 0, "the workload must trigger GC"


def test_grammar_workload_equivalence():
    stream = grammar_stream(make_profile("oltp-churn", scale=0.2), seed=11)
    events = list(itertools.islice(stream.events_from(), 4000))
    _assert_equivalent(_spec(rate=40.0), events)


def test_tenant_mix_equivalence():
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.2)
    events = list(itertools.islice(tenant_stream(config, seed=5).events_from(), 4000))
    _assert_equivalent(_spec(rate=40.0), events)


def test_generator_list_and_compiled_trace_agree():
    """Simulation.run compiles whatever it is given: a generator, a list
    and that list's CompiledTrace give pickle-equal summaries."""
    spec = _spec()
    events = list(build_workload(spec.workload, 0))
    outcomes = [
        (pickle.dumps(res.summary), state_digest(sim.store))
        for sim, res in (
            _run(spec, build_workload(spec.workload, 0)),
            _run(spec, events),
            _run(spec, compile_trace(events)),
        )
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_event_subclass_rejected_at_compile():
    """The compiler knows the ten event classes exactly; a subclass is a
    TypeError naming it, raised before any event is applied."""

    class TaggedAccess(AccessEvent):
        pass

    sim = Simulation(policy=build_policy(_spec().policy, 0), config=_spec().sim)
    with pytest.raises(TypeError, match="TaggedAccess"):
        sim.run([CreateEvent(oid=1, size=64), TaggedAccess(oid=1)])
    assert not sim.store.objects


# ------------------------------------------------- start_index / resume


def _self_contained_events():
    """A trace whose tail is valid from many start offsets.

    Creates form one long run, so a ``start_index`` inside it lands in
    the middle of a batch; the pointer/access tail references only the
    last-created oids.
    """
    events = [CreateEvent(oid=i, size=120) for i in range(1, 11)]
    events.append(PointerWriteEvent(src=8, slot="x", target=9))
    events.extend(AccessEvent(oid=8) for _ in range(6))
    events.append(UpdateEvent(oid=9))
    return events


@given(start=st.integers(min_value=0, max_value=18))
@settings(max_examples=30, deadline=None)
def test_start_index_lands_mid_batch(start):
    """Resume from any offset — including inside a bulk run — matches.

    The interpreter and the oracle must agree on the outcome (summary and
    state on success, error type and message on failure) for every start
    offset.
    """
    spec = _spec(rate=500.0)
    events = _self_contained_events()
    trace = compile_trace(events)

    def outcome(replayable, oracle):
        try:
            sim, res = _run(spec, replayable, oracle=oracle, start_index=start)
        except StoreError as err:
            return ("error", type(err).__name__, str(err))
        return ("ok", pickle.dumps(res.summary), state_digest(sim.store))

    assert outcome(trace, False) == outcome(events, True)


def test_crash_drill_resume_matches_scalar():
    """A crash drill resumed mid-trace is identical to the scalar oracle's.

    With faults and a redo log attached the batched path takes its
    guarded per-event interpreter; the resume index must land strictly
    inside an opcode run so the drill exercises a mid-batch restart.
    """
    spec = _spec(rate=30.0)
    config = dataclasses.replace(spec.sim, enable_redo_log=True)
    events = list(build_workload(spec.workload, 0))
    trace = compile_trace(events)
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=2),))

    def drilled(replayable, oracle):
        injector = FaultInjector(plan)
        log = RedoLog()
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
                if oracle:
                    run_scalar(sim, replayable, start_index=start)
                else:
                    sim.run(replayable, start_index=start)
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

    resumes_s, digest_s, summary_s = drilled(events, oracle=True)
    resumes_b, digest_b, summary_b = drilled(trace, oracle=False)
    assert resumes_s, "the plan must actually crash the run"
    assert resumes_b == resumes_s
    assert digest_b == digest_s
    assert summary_b == summary_s
    # The drill is only a mid-batch test if some resume index lands
    # strictly inside a run of same-opcode events.
    ops = trace.ops
    assert any(0 < i < len(ops) and ops[i] == ops[i - 1] for i in resumes_b), (
        "no resume index landed inside an opcode run"
    )


# ------------------------------------------------- durable (redo + WAL)

#: Durable configs. A redo log auto-commits every mutation outside an
#: explicit transaction; fast mode logs those singletons inline.
_DURABLE = (
    {"enable_redo_log": True, "enable_wal": True},
    {"enable_redo_log": True},
    {"enable_wal": True},
)


def _durable_state(sim):
    log = sim.redo_log
    return (
        None if log is None else (log.records, log.appended_total),
        None if sim.tx.wal is None else sim.tx.wal.stats,
        sim.tx.committed,
        sim.tx.aborted,
        sim._auto_txid,
    )


def _assert_durable_equivalent(spec, events, durable, policy=None):
    """Oracle == batched on summary, state, redo log, WAL and tx counters,
    with the batched run in fast mode."""
    if policy is not None:
        spec = dataclasses.replace(spec, policy=policy)
    spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, **durable))

    def outcome(replayable, oracle):
        try:
            sim, res = _run(spec, replayable, oracle=oracle)
        except StoreError as err:
            return ("error", type(err).__name__, str(err))
        return (
            "ok",
            pickle.dumps(res.summary),
            state_digest(sim.store),
            _durable_state(sim),
        )

    probe = Simulation(policy=build_policy(spec.policy, 0), config=spec.sim)
    assert _fast_eligible(probe)
    assert outcome(compile_trace(events), False) == outcome(events, True)


def _transactional_events():
    spec = TransactionalSpec(transactions=30, abort_probability=0.4)
    return list(TransactionalWorkload(spec, seed=3, initial_clusters=10).events())


@pytest.mark.parametrize("durable", _DURABLE, ids=lambda d: "+".join(sorted(d)))
@pytest.mark.parametrize(
    "policy",
    [
        PolicySpec("fixed", {"overwrites_per_collection": 40.0}),
        PolicySpec("saio", {"io_fraction": 0.1}),  # app-I/O clock: WAL moves it
    ],
    ids=lambda p: p.kind,
)
@pytest.mark.parametrize("workload", ["oo7", "grammar", "tenant", "transactional"])
def test_durable_replay_is_fast_and_identical(workload, policy, durable):
    if workload == "oo7":
        events = list(build_workload(_spec().workload, 0))
    elif workload == "grammar":
        stream = grammar_stream(make_profile("oltp-churn", scale=0.2), seed=11)
        events = list(itertools.islice(stream.events_from(), 4000))
    elif workload == "tenant":
        config = tenant_mix(["oltp-churn", "read-browse"], scale=0.2)
        events = list(itertools.islice(tenant_stream(config, seed=5).events_from(), 4000))
    else:
        events = _transactional_events()
    _assert_durable_equivalent(_spec(rate=40.0), events, durable, policy)


@st.composite
def _update_heavy_traces(draw):
    """Objects hung off one root, then runs of accesses and updates (long
    enough for the bulk kernels) mixed with repeated root registrations
    and pointer writes whose ``dies`` lists may repeat a victim."""
    n = draw(st.integers(min_value=4, max_value=30))
    events = [CreateEvent(oid=1, size=64)]
    events.append(RootEvent(oid=1))
    for oid in range(2, n + 1):
        events.append(CreateEvent(oid=oid, size=draw(st.integers(40, 900))))
        events.append(PointerWriteEvent(src=1, slot=f"s{oid}", target=oid))
    events.append(RootEvent(oid=1))  # already a root: WAL record, no redo
    live = list(range(2, n + 1))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(["access", "update", "update", "kill", "root"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=12),
        ),
        max_size=40,
    ))
    for kind, pick, length in steps:
        if not live:
            break
        oid = live[pick % len(live)]
        if kind == "access":
            events.extend(AccessEvent(oid=oid) for _ in range(length))
        elif kind == "update":
            events.extend(UpdateEvent(oid=oid) for _ in range(length))
        elif kind == "root":
            events.append(RootEvent(oid=oid))
        else:
            live.remove(oid)
            dies = (oid,) * (1 + length % 2)
            events.append(
                PointerWriteEvent(src=1, slot=f"s{oid}", target=None, dies=dies)
            )
    return events


@given(events=_update_heavy_traces(), durable=st.sampled_from(_DURABLE))
@settings(max_examples=40, deadline=None)
def test_durable_bulk_runs_log_every_singleton(events, durable):
    _assert_durable_equivalent(_spec(rate=8.0), events, durable)


# ------------------------------------------------- numpy independence


def test_pure_python_fallback_is_byte_identical(monkeypatch):
    """Forcing the numpy kernels off must not change a single byte."""
    spec = _spec(rate=80.0)
    events = list(build_workload(spec.workload, 0))

    def batched_summary():
        sim, res = _run(spec, compile_trace(events))
        return pickle.dumps(res.summary), state_digest(sim.store)

    with_default = batched_summary()
    monkeypatch.setattr("repro.sim.batch._HAVE_NUMPY", False)
    without_numpy = batched_summary()
    assert without_numpy == with_default


# ------------------------------------------------- fingerprints / config

#: The fingerprint ``_spec()`` had under every interpreter choice
#: (``auto``, ``batched``, ``scalar``) while ``SimulationConfig.replay``
#: existed: the interpreter was never an experiment input, so dropping
#: the field must leave cached results addressable.
_SPEC_FINGERPRINT = "c6deb216707b14dbacd9b864944d58b08f71db62a7cdb03d5914a8171881d25b"


def test_replay_choice_does_not_change_fingerprint():
    """The interpreter is an execution detail, not an experiment input."""
    assert spec_fingerprint(_spec(), seed=0) == _SPEC_FINGERPRINT


# ------------------------------------------------- service backpressure


def test_service_backpressure_identical_across_interpreters():
    """Shedding decisions land at event (batch) boundaries either way.

    The service applies stream events one at a time so admission control
    can veto each create before it executes; its batched interpreter must
    not change a single shedding decision, counter, or the final committed
    state relative to the per-event oracle service.
    """

    def report_for(service_class):
        service = service_class(
            policy=build_policy(PolicySpec("fixed", {"overwrites_per_collection": 200.0}), 3),
            stream=grammar_stream(make_profile("oltp-churn"), seed=3),
            sim_config=SimulationConfig(),
            service=ServiceConfig(
                max_events=15_000,
                checkpoint_every_events=5_000,
                max_heap_bytes=12_000,
                backpressure="shed",
            ),
        )
        report = service.run()
        fields = dataclasses.asdict(report)
        fields.pop("wall_s")
        fields.pop("paced_sleep_s")
        return fields

    oracle = report_for(OracleService)
    batched = report_for(GcService)
    assert oracle["backpressure"]["shed_events"] > 0, "the drill must shed"
    assert batched == oracle
