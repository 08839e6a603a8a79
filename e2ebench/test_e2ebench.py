"""Tests of the end-to-end benchmark itself, at the ``tiny`` input size.

Run from the repository root with ``python3 -m pytest e2ebench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS, accounting_errors, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark command at the tiny size; (returncode, stdout)."""
    command = [sys.executable, str(cwd / SPEC["command"][1]),
               "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
               "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def digests(stdout: str) -> dict:
    return dict(line.split()[1:3] for line in stdout.splitlines()
                if line.startswith("  digest "))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, stdout = bench(workload, trace=trace)
    assert code == 0, stdout
    out = result(stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modelled_outcomes_repeat_within_a_process(workload):
    runs = []
    for _ in range(2):
        w = make_workload(workload, "tiny")
        w.setup(3)
        gate = w.gate()
        w.run_pass()
        assert not w.errors
        runs.append(gate)
    first, second = runs
    assert first.digests == second.digests
    assert (first.sim_total_io, first.sim_db_bytes, first.tracking_error_pct) == (
        second.sim_total_io, second.sim_db_bytes, second.tracking_error_pct)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modelled_outcomes_repeat_across_processes(workload):
    outputs = [bench(workload, seed=5, trace=1)[1] for _ in range(2)]
    first, second = (result(o)["metrics"] for o in outputs)
    for name in ("model.db_bytes", "model.tracking_error_pct"):
        assert first[name]["value"] == second[name]["value"], name
    # The end-to-end table is printed in traced runs too; at the tiny size
    # the I/O total fits its six significant digits.
    first, second = ([line for line in o.splitlines()
                      if line.startswith("  sim_total_io ")] for o in outputs)
    assert first and first == second
    assert digests(outputs[0]) and digests(outputs[0]) == digests(outputs[1])


def test_reference_mismatch_is_reported():
    reference = json.loads(run.REFERENCE.read_text())
    name, expected = next(iter(reference["digests"].items()))
    seed, size = reference["seed"], reference["size"]
    assert run.check_reference(name, seed, size, dict(expected)) == []
    tampered = dict(expected, **{next(iter(expected)): "0" * 64})
    assert len(run.check_reference(name, seed, size, tampered)) == 1
    assert run.check_reference(name, seed + 1, size, tampered) is None


def test_accounting_identities_catch_a_ledger_out_of_step():
    from repro.sim.simulator import Simulation
    from repro.sim.spec import build_policy, build_selection

    w = make_workload("oo7-dense", "tiny")
    w.setup(3)
    spec = w.specs[0]
    result = Simulation(policy=build_policy(spec.policy, 3),
                        selection=build_selection(spec.selection, 3),
                        config=spec.sim).run(
        w.trace_cache.get_or_build(spec.workload, 3))
    summary, store, records = result.summary, result.store, result.collections
    assert records and accounting_errors(summary, store, records) == []
    last = dataclasses.replace(records[-1], gc_io=records[-1].gc_io + 1)
    assert accounting_errors(summary, store, records[:-1] + [last])
    assert accounting_errors(summary, store, records[:-1])
    for field in ("app_io_total", "total_reclaimed_bytes"):
        tampered = dataclasses.replace(summary, **{field: getattr(summary, field) + 1})
        assert accounting_errors(tampered, store, records), field


def test_tracer_restores_every_wrapped_call():
    from repro.gc.collector import CopyingCollector
    from repro.sim.simulator import Simulation

    before = (Simulation.run, CopyingCollector.collect)
    with LayerTracer(lambda *a: None, lambda *a: None) as tracer:
        assert Simulation.run is not before[0]
        assert not tracer.missing
    assert (Simulation.run, CopyingCollector.collect) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, stdout = bench("oo7-sparse", cwd=tmp_path)
    assert code != 0
    assert not stdout.strip()
