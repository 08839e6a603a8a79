"""Tests for the content-addressed on-disk result cache."""

import json

import pytest

from repro.experiments.common import DEFAULT_CONFIG, SAGA_PREAMBLE, oo7_spec
from repro.experiments.figure1 import QUICK_RATES
from repro.oo7.config import TINY
from repro.sim.cache import ResultCache, spec_fingerprint
from repro.sim.engine import run_experiment
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import ExperimentSpec, PolicySpec, WorkloadSpec
from repro.storage.heap import StoreConfig

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)


def tiny_spec(rate=50, label=""):
    return ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": rate}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SIM,
        label=label,
    )


@pytest.fixture
def run():
    """One real simulation run (summary + records) to feed the cache."""
    aggregate = run_experiment(
        tiny_spec(), seeds=[0], jobs=1, keep_records=True
    )
    return aggregate.summaries[0], aggregate.records[0]


# ---------------------------------------------------------------- round-trip


def test_round_trip_summary(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    assert cache.get(key) is None
    cache.put(key, summary)
    hit = cache.get(key)
    assert hit is not None
    assert hit.summary == summary
    assert hit.records is None
    assert key in cache
    assert len(cache) == 1


def test_round_trip_with_records(tmp_path, run):
    summary, records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    cache.put(key, summary, records)
    hit = cache.get(key, want_records=True)
    assert hit is not None
    assert hit.records == records


def test_want_records_misses_summary_only_entries(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    cache.put(key, summary)
    assert cache.get(key, want_records=True) is None
    assert cache.get(key) is not None  # still hits without records


def test_corrupt_entry_is_discarded(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    cache.put(key, summary)
    cache._path(key).write_text("{ not json")
    assert cache.get(key) is None
    assert key not in cache  # dropped, not left to fail again


def test_incompatible_schema_is_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(tiny_spec(), seed=0)
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"summary": {"no_such_field": 1}}))
    assert cache.get(key) is None
    assert key not in cache


def test_clear(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    for seed in (0, 1, 2):
        cache.put(spec_fingerprint(tiny_spec(), seed=seed), summary)
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_no_temp_files_left_behind(tmp_path, run):
    summary, _records = run
    cache = ResultCache(tmp_path)
    cache.put(spec_fingerprint(tiny_spec(), seed=0), summary)
    leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"]
    assert leftovers == []


# ---------------------------------------------------------------- fingerprints


def test_fingerprint_stable_across_calls():
    assert spec_fingerprint(tiny_spec(), 0) == spec_fingerprint(tiny_spec(), 0)


def test_fingerprint_ignores_label():
    assert spec_fingerprint(tiny_spec(label="a"), 0) == spec_fingerprint(
        tiny_spec(label="b"), 0
    )


def test_fingerprint_invalidates_on_any_input_change(run):
    base = spec_fingerprint(tiny_spec(), 0)
    assert spec_fingerprint(tiny_spec(), 1) != base  # seed
    assert spec_fingerprint(tiny_spec(rate=51), 0) != base  # policy kwargs
    other_sim = ExperimentSpec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 50}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SimulationConfig(store=TINY_STORE, preamble_collections=1),
    )
    assert spec_fingerprint(other_sim, 0) != base  # simulation config


#: ``spec_fingerprint(spec, 0)`` of each quick Figure 1 cell, recorded
#: before ``SimulationConfig`` lost its ``reachability`` and ``replay``
#: fields (both were excluded from canonical material). Every result
#: cache populated since then must keep answering.
_FIGURE1_QUICK_FINGERPRINTS = {
    50: "b8cc6737f8b766f499a969dd1c66d22ceb863782adea75082fab7d488aefefe5",
    100: "390136ad25d852c0a838e55acf53269c81d4cd75a737212382c98fed94add445",
    200: "294b685201c90e7ce3f541093e46d0bba161aacecebe3220cd64ee1116756d0a",
    400: "2249697110f20797325e9efe67f95e3960fae51e593daa475d900e00d29d3411",
    800: "df18b3ebb137d544cc92b3ab68e80a320e1534e07b62e0445f288c7b75183e44",
}


def test_quick_figure1_fingerprints_are_pinned():
    prints = {
        rate: spec_fingerprint(
            oo7_spec(
                PolicySpec("fixed", {"overwrites_per_collection": rate}),
                DEFAULT_CONFIG,
                SAGA_PREAMBLE,
                label=f"figure1 fixed@{rate:g}",
            ),
            0,
        )
        for rate in QUICK_RATES
    }
    assert prints == _FIGURE1_QUICK_FINGERPRINTS
