"""Pinned content digests of generated traces.

The trace cache keys each trace by its workload spec and seed, never by its
content, so a generator that silently changed its events would go on
serving them under the old key. These tests pin the SHA-256 of each
trace's compiled binary encoding (:meth:`CompiledTrace.save`). Any change
to a generator's events, to their order or to the RNG draws behind them
changes a digest. A deliberate change must update the literal here and
bump the package version with it, which is part of every trace-cache key.
"""

import hashlib
import io
import itertools

import pytest

from repro.oo7.config import SMALL_PRIME, TINY
from repro.service.stream import tenant_stream
from repro.workload.application import Oo7Application
from repro.workload.compiled import compile_trace
from repro.workload.grammar import GrammarWorkload
from repro.workload.tenants import TenantMix, make_profile, tenant_mix


def _digest(events) -> str:
    buffer = io.BytesIO()
    compile_trace(events).save(buffer)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


def _serve_mix():
    return tenant_mix(["oltp-churn", "read-browse"])


CASES = {
    "oo7-tiny-seed0": (
        lambda: Oo7Application(TINY, seed=0).events(),
        "1c259e871297cf4b22cdb7a5a01bf9c2c4dd13e957123b7afc7c50f3b161d3a2",
    ),
    "oo7-tiny-seed1": (
        lambda: Oo7Application(TINY, seed=1).events(),
        "3b1c1a943627f49d7084c8109f933511b3bd02f56ec72ea4b6ca10d3b012775d",
    ),
    "oo7-small-prime-seed0": (
        lambda: Oo7Application(SMALL_PRIME, seed=0).events(),
        "c7285fbb8a24e2e0092a33b535583586e95e5b86f93ff96beab69af983c42c73",
    ),
    "tenant-stream-first-4000": (
        lambda: itertools.islice(
            tenant_stream(_serve_mix(), seed=0).events_from(0), 4000
        ),
        "af71213cdf958d5d69e5962943638ba3381d440d1ceaf83cb716d636ededf5a2",
    ),
    "tenant-mix-finite": (
        lambda: TenantMix(
            tenant_mix(["oltp-churn", "read-browse"], scale=0.3), seed=0
        ).events(),
        "71c1b5352b0068a13894be170c9c19ef3b637b1b99cc648b9e9197f0b5b3b341",
    ),
    "grammar-oltp-churn": (
        lambda: GrammarWorkload(make_profile("oltp-churn"), seed=0).events(),
        "af7bed1c68ea224e77f66d927e827e809bf047055bec1ff993a401b262f37279",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_content_is_pinned(name):
    build, expected = CASES[name]
    assert _digest(build()) == expected
