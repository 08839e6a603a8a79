"""The bisect k-way merge is byte-identical to ``random.choices``.

``TenantMix`` draws tenants by bisecting a cached cumulative-weight table,
an O(log k)-per-step optimisation of the original O(k) ``random.choices``
draw kept in :mod:`merge_oracle`; both consume exactly one
``rng.random()`` per merge step over float-identical cumulative sums, so
the merged traces must be **equal event-for-event** — including across
tenant-exhaustion rebuilds of the draw table.
"""

import itertools

import pytest

from merge_oracle import merge_choices
from repro.workload.grammar import OpMix, PhaseBlock, WorkloadConfig
from repro.workload.tenants import (
    TenantMix,
    TenantMixConfig,
    TenantSpec,
    tenant_mix,
)


def _config(name, operations, create=2, delete=1, access=3):
    return WorkloadConfig(
        name=name,
        phases=(
            PhaseBlock(
                name="p",
                operations=operations,
                mix=OpMix(create=create, delete=delete, access=access),
            ),
        ),
        initial_clusters=4,
    )


def _uneven_mix():
    """Tenants of very different lengths: forces draw-table rebuilds.

    When the short tenant exhausts mid-merge, the bisect path must rebuild
    its cached cumulative table exactly where ``random.choices`` would
    narrow its population — the divergence-prone case the oracle guards.
    """
    return TenantMixConfig(
        name="uneven",
        tenants=(
            TenantSpec(name="short", config=_config("s", 30), weight=3.0),
            TenantSpec(name="long", config=_config("l", 400), weight=1.0),
            TenantSpec(name="mid", config=_config("m", 120), weight=2.0),
        ),
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1999])
def test_merge_modes_are_byte_identical(seed):
    mix = TenantMix(_uneven_mix(), seed=seed)
    assert list(mix.events()) == list(merge_choices(mix))


@pytest.mark.parametrize("seed", [3, 11])
def test_merge_modes_identical_on_profiles(seed):
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.2)
    mix = TenantMix(config, seed=seed)
    assert list(mix.events()) == list(merge_choices(mix))


def test_unbounded_stream_draw_matches_bisect_semantics():
    """The service stream uses the same cached-table draw (no exhaustion)."""
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.5)
    first = list(
        itertools.islice(TenantMix(config, seed=9).stream(max_live_clusters=32), 2000)
    )
    again = list(
        itertools.islice(TenantMix(config, seed=9).stream(max_live_clusters=32), 2000)
    )
    assert first == again
