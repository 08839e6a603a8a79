"""A finished run frees its heap by reference counting alone.

Sweeps and services start run after run in one process. If a finished
``Simulation`` or ``GcService`` sat in a reference cycle, its whole store
would stay alive until CPython's next full cyclic collection, which then
pauses for tens of milliseconds to walk it. These tests disable the cyclic
collector and check that the store dies as soon as the last outside
reference to the run is dropped.
"""

import gc
import itertools
import weakref

import pytest

from repro.core.fixed import FixedRatePolicy
from repro.oo7.config import TINY
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import finite_stream
from repro.sim.simulator import Simulation
from repro.workload.application import Oo7Application
from repro.workload.tenants import TenantMix, tenant_mix


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_finished_simulation_store_dies_with_its_result(no_cyclic_gc):
    events = list(Oo7Application(TINY, seed=0).events())
    result = Simulation(policy=FixedRatePolicy(40)).run(events)
    assert result.collections, "the run must schedule and fire collections"
    store = weakref.ref(result.store)
    del result
    assert store() is None


def test_finished_service_leg_store_dies_with_the_service(no_cyclic_gc):
    mix = TenantMix(tenant_mix(["oltp-churn", "read-browse"]), seed=0)
    events = list(itertools.islice(mix.stream(), 4000))
    service = GcService(
        policy=FixedRatePolicy(40),
        stream=finite_stream(events),
        service=ServiceConfig(checkpoint_every_events=1000),
    )
    report = service.run()
    assert report.events_applied == len(events)
    assert report.checkpoints > 0
    store = weakref.ref(service.sim.store)
    del service, report
    assert store() is None
