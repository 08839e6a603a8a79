"""The original ``random.choices`` tenant merge, kept as the oracle.

:meth:`repro.workload.tenants.TenantMix.events` draws the next tenant by
bisecting a cached cumulative-weight table, rebuilt only when a tenant
exhausts. It started as this O(k)-per-step ``random.choices`` draw; both
consume exactly one ``rng.random()`` per merge step over float-identical
cumulative sums, so tests can demand the two merged traces be equal
event-for-event.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.events import (
    AbortTransactionEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    TraceEvent,
)
from repro.workload.tenants import TenantMix, _remap_event


def merge_choices(mix: TenantMix) -> Iterator[TraceEvent]:
    """``mix``'s merged trace, drawn with ``random.choices`` per step."""
    streams = [workload.events() for workload in mix.tenant_workloads()]
    tenants = mix.config.tenants
    stride = len(tenants)
    rng = random.Random(mix.seed)
    live = list(range(stride))
    weights = [tenants[i].weight for i in live]
    while live:
        pick = rng.choices(range(len(live)), weights=weights)[0]
        index = live[pick]
        in_transaction = False
        while True:
            event = next(streams[index], None)
            if event is None:
                del live[pick]
                del weights[pick]
                break
            yield _remap_event(event, stride, index, tenants[index].name)
            if isinstance(event, BeginTransactionEvent):
                in_transaction = True
            elif isinstance(event, (CommitTransactionEvent, AbortTransactionEvent)):
                in_transaction = False
            if not in_transaction:
                break
