"""Multi-tenant interleaving: remapping, determinism, profiles, config."""

import itertools

import pytest

from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    iterate_trace,
)
from repro.workload.grammar import (
    GrammarError,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    WorkloadConfig,
)
from repro.workload.tenants import (
    TENANT_FORMAT_VERSION,
    TENANT_PROFILES,
    TENANT_SEED_STRIDE,
    TenantMix,
    TenantMixConfig,
    TenantSpec,
    _remap_event,
    make_profile,
    tenant_mix,
    tenant_seed,
)


def _tiny_config(name="w", operations=40):
    return WorkloadConfig(
        name=name,
        phases=(
            PhaseBlock(
                name="p",
                operations=operations,
                mix=OpMix(create=2, delete=1, access=3),
            ),
        ),
        initial_clusters=4,
    )


def _mix(n=2):
    return TenantMixConfig(
        name="mix",
        tenants=tuple(
            TenantSpec(name=f"t{i}", config=_tiny_config(f"w{i}")) for i in range(n)
        ),
    )


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


def test_tenant_seed_derivation():
    assert tenant_seed(3, 1) == 3 * TENANT_SEED_STRIDE + 1


def test_tenant_spec_validation():
    with pytest.raises(GrammarError):
        TenantSpec(name="", config=_tiny_config())
    with pytest.raises(GrammarError):
        TenantSpec(name="a/b", config=_tiny_config())
    with pytest.raises(GrammarError):
        TenantSpec(name="t", config=_tiny_config(), weight=0)


def test_mix_config_validation():
    with pytest.raises(GrammarError):
        TenantMixConfig(name="", tenants=_mix().tenants)
    with pytest.raises(GrammarError):
        TenantMixConfig(name="m", tenants=())
    dup = TenantSpec(name="t0", config=_tiny_config())
    with pytest.raises(GrammarError):
        TenantMixConfig(name="m", tenants=(dup, dup))


def test_mix_json_round_trip_is_lossless():
    mix = _mix(3)
    assert TenantMixConfig.from_json(mix.to_json()) == mix


def test_mix_from_dict_rejects_bad_payloads():
    payload = _mix().to_dict()
    with pytest.raises(GrammarError):
        TenantMixConfig.from_dict(dict(payload, format=TENANT_FORMAT_VERSION + 1))
    with pytest.raises(GrammarError):
        TenantMixConfig.from_dict(dict(payload, extra=1))
    with pytest.raises(GrammarError):
        TenantMixConfig.from_json("{broken")


# ----------------------------------------------------------------------
# Remapping
# ----------------------------------------------------------------------


def test_remap_event_covers_ids_markers_and_idle():
    create = CreateEvent(5, 64, pointers=(("next", 3), ("null", None)))
    mapped = _remap_event(create, stride=4, offset=1, prefix="t")
    assert mapped.oid == 21
    assert mapped.pointers == (("next", 13), ("null", None))

    write = PointerWriteEvent(2, "slot", 7, dies=(3, 4))
    mapped = _remap_event(write, stride=4, offset=1, prefix="t")
    assert (mapped.src, mapped.target, mapped.dies) == (9, 29, (13, 17))

    assert _remap_event(RootEvent(1), 4, 1, "t").oid == 5
    assert _remap_event(PhaseMarkerEvent("load"), 4, 1, "t").name == "t/load"
    assert _remap_event(BeginTransactionEvent(2), 4, 1, "t").txid == 9
    idle = IdleEvent(ticks=3)
    assert _remap_event(idle, 4, 1, "t") is idle


def test_interleaved_oid_spaces_are_disjoint():
    mix = TenantMix(_mix(3), seed=0)
    residues = {}
    for event in mix.events():
        if isinstance(event, CreateEvent):
            residues.setdefault(event.oid % 3, set()).add(event.oid)
    assert len(residues) == 3
    all_oids = set().union(*residues.values())
    assert sum(len(v) for v in residues.values()) == len(all_oids)


def test_phase_markers_attribute_tenants():
    markers = {
        e.name
        for e in TenantMix(_mix(2), seed=0).events()
        if isinstance(e, PhaseMarkerEvent)
    }
    assert markers == {"t0/p", "t1/p"}


# ----------------------------------------------------------------------
# Determinism and stream merging
# ----------------------------------------------------------------------


def test_same_seed_same_merged_trace():
    a = list(TenantMix(_mix(3), seed=7).events())
    b = list(TenantMix(_mix(3), seed=7).events())
    assert a == b
    assert a != list(TenantMix(_mix(3), seed=8).events())


def test_merged_trace_contains_every_tenant_event():
    mix = TenantMix(_mix(2), seed=0)
    merged = list(mix.events())
    per_tenant = sum(len(list(w.events())) for w in mix.tenant_workloads())
    assert len(merged) == per_tenant


def test_shards_use_derived_seeds():
    mix = TenantMix(_mix(2), seed=3)
    shards = mix.shards()
    assert [spec.name for spec, _ in shards] == ["t0", "t1"]
    for index, (spec, workload) in enumerate(shards):
        assert workload.seed == tenant_seed(3, index)
        assert workload.config == spec.config


def test_weights_bias_the_interleave():
    heavy = TenantMixConfig(
        name="m",
        tenants=(
            TenantSpec(name="a", config=_tiny_config("a", 30), weight=20.0),
            TenantSpec(name="b", config=_tiny_config("b", 30), weight=1.0),
        ),
    )
    events = list(TenantMix(heavy, seed=0).events())
    # Tenant a (offset 0, weight 20) should exhaust its stream well before
    # tenant b: its last event lands in the first half of the merged trace.
    last_a = max(
        i for i, e in enumerate(events)
        if isinstance(e, CreateEvent) and e.oid % 2 == 0
    )
    assert last_a < len(events) * 0.75


def test_transactions_stay_contiguous():
    class _TxWorkload:
        """Two transactions with a marker inside each."""

        def events(self):
            yield BeginTransactionEvent(1)
            yield CreateEvent(1, 64)
            yield CommitTransactionEvent(1)
            yield BeginTransactionEvent(2)
            yield CreateEvent(2, 64)
            yield CommitTransactionEvent(2)

    mix = TenantMix(_mix(2), seed=0)
    # Substitute one tenant's stream with the transactional one.
    workloads = mix.tenant_workloads()

    def patched():
        streams = [_TxWorkload(), workloads[1]]
        return streams

    mix.tenant_workloads = patched  # type: ignore[method-assign]
    events = list(mix.events())
    depth = 0
    for event in events:
        if isinstance(event, BeginTransactionEvent):
            depth += 1
        elif isinstance(event, CommitTransactionEvent):
            depth -= 1
        elif depth > 0:
            # Inside tenant 0's transaction only its own (even-residue)
            # events may appear.
            if isinstance(event, CreateEvent):
                assert event.oid % 2 == 0
    assert depth == 0


def test_stream_transactions_stay_contiguous():
    class _TxWorkload:
        """Endless transactions, alternately committed and aborted."""

        def stream(self, max_live_clusters):
            txid = 0
            while True:
                txid += 1
                yield BeginTransactionEvent(txid)
                yield CreateEvent(txid, 64)
                yield AccessEvent(txid)
                if txid % 2:
                    yield CommitTransactionEvent(txid)
                else:
                    yield AbortTransactionEvent(txid)

    mix = TenantMix(_mix(2), seed=0)
    workloads = mix.tenant_workloads()
    mix.tenant_workloads = lambda: [_TxWorkload(), workloads[1]]  # type: ignore[method-assign]
    events = list(itertools.islice(mix.stream(), 2000))
    in_transaction = False
    ends = 0
    for event in events:
        if isinstance(event, BeginTransactionEvent):
            assert not in_transaction
            in_transaction = True
        elif isinstance(event, (CommitTransactionEvent, AbortTransactionEvent)):
            assert in_transaction
            in_transaction = False
            ends += 1
        elif in_transaction:
            # Inside tenant 0's transaction only its own (even-residue)
            # events may appear.
            assert isinstance(event, (CreateEvent, AccessEvent))
            assert event.oid % 2 == 0
    assert ends > 100
    # The grammar tenant got the floor too.
    assert any(isinstance(e, CreateEvent) and e.oid % 2 == 1 for e in events)


def test_remap_rejects_unknown_event_classes():
    class _Custom(AccessEvent):
        pass

    with pytest.raises(TypeError, match="cannot remap"):
        _remap_event(_Custom(1), 2, 0, "t")


# ----------------------------------------------------------------------
# The profile library
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TENANT_PROFILES))
def test_every_profile_builds_and_generates(name):
    config = make_profile(name, scale=0.1)
    assert config.name == name
    events = list(GrammarWorkload(config, seed=0).events())
    assert events
    for _ in iterate_trace(events):  # event types all valid
        pass


def test_make_profile_unknown_name():
    with pytest.raises(GrammarError, match="oltp-churn"):
        make_profile("compaction-storm")


def test_tenant_mix_builder_handles_duplicates_and_weights():
    mix = tenant_mix(
        ["oltp-churn", "oltp-churn", "read-browse"],
        scale=0.1,
        weights=[2.0, 1.0, 1.0],
    )
    assert [t.name for t in mix.tenants] == [
        "oltp-churn", "oltp-churn-2", "read-browse",
    ]
    assert [t.weight for t in mix.tenants] == [2.0, 1.0, 1.0]
    assert mix.name == "oltp-churn+oltp-churn+read-browse"


def test_tenant_mix_builder_validation():
    with pytest.raises(GrammarError):
        tenant_mix([])
    with pytest.raises(GrammarError):
        tenant_mix(["oltp-churn"], weights=[1.0, 2.0])
