"""End-to-end benchmark of the reproduction, with per-layer attribution.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload oo7-sparse --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends half
the time on the same untraced measurement and half on a traced run whose
spans give the per-layer metrics (and the tracing overhead). Every input
is generated from ``--seed``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; lines before it
are a human-readable table. The exit status is 0 only when every
correctness check passed; 2 means the program could not be loaded.

Run ``python3 -m pytest e2ebench`` for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

#: Iterations of the calibration loop per reading (about 25 ms).
CALIBRATION_LOOPS = 100_000
#: Calibration loops per second that define one reference second. The
#: unit is arbitrary; this is about what the loop does on a 2-vCPU x86-64
#: cloud VM under CPython 3.11.
REFERENCE_LOOPS_PER_S = 6.0e6

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: Where the traced run writes its spans (inside the checkout).
SPAN_DIR = ROOT / ".e2ebench-out"


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def calibrate() -> float:
    """Host speed now, relative to the reference: a fixed pure-Python loop.

    On a shared host the same pass runs up to 1.8x slower for stretches of
    tens of seconds, and CPU time stretches with wall time, so neither
    can be compared across runs. Every timing is therefore converted to
    reference seconds, ``seconds * speed``, with the speed read by this
    loop just before and just after the timed work. The loop touches
    nothing of the program under test, so no change to the program can
    move it.
    """
    table: dict = {}
    began = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
    return CALIBRATION_LOOPS / (time.perf_counter() - began) / REFERENCE_LOOPS_PER_S


class Speedometer:
    """Brackets each timed step with calibration readings."""

    def __init__(self) -> None:
        self.last = calibrate()

    def stamp(self, result):
        """Set ``result.speed`` to the mean of the readings around it."""
        now = calibrate()
        result.speed = (self.last + now) / 2
        self.last = now
        return result


def set_up(workload, seed: int, repeats: int) -> list:
    meter = Speedometer()
    return [meter.stamp(workload.setup(seed)) for _ in range(repeats)]


def measure(workload, budget_s: float, min_passes: int,
            open_loop: bool = True) -> tuple[list, list]:
    """Timed passes until the budget is spent, at least ``min_passes``.

    ``serve-churn`` alternates a closed-loop capacity leg with an open-loop
    leg, so both see the same conditions. The open-loop offered rate is
    fixed in reference units, so the load relative to the service's
    capacity does not drift with the host's speed.
    """
    passes, open_legs = [], []
    gc.collect()
    meter = Speedometer()
    deadline = time.perf_counter() + budget_s
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(summarised(meter.stamp(workload.run_pass())))
        if open_loop and workload.kind == "serve":
            rate = workload.offered_rate * meter.last
            open_legs.append(
                summarised(meter.stamp(workload.open_loop_pass(rate))))
    return passes, open_legs


def summarised(p):
    """Keep a pass's percentiles, not its samples, so the benchmark's own
    memory does not grow with the number of passes; then free the pass's
    garbage untimed, so that no cyclic collection of it lands inside the
    next pass."""
    p.samples = len(p.latencies)
    if p.latencies:
        p.latency = (percentile(p.latencies, 50), percentile(p.latencies, 99))
    if p.lags:
        p.lag_p99 = percentile(p.lags, 99)
    p.latencies = p.lags = None
    gc.collect()
    return p


def events_per_ref_s(p) -> float:
    return p.events / (p.wall_s * p.speed)


def latency_percentiles(passes, open_legs) -> tuple[float, float]:
    """(p50, p99) in reference seconds, each the median over passes of the
    percentile within a pass: over the policy cells of a sweep, or over
    the events of an open-loop leg. On OO7 the p50 is the wall time of a
    sweep's median policy cell, so it moves with the typical cell and not
    when only the slowest cell gets faster; ``events_per_s`` covers those.

    The p99 of open-loop legs counts only the half that ran while the
    host was fastest: queueing turns a slowdown in the middle of a leg,
    which the calibration around it cannot see, into a longer tail. The
    p50 counts every leg; picking legs by their measured speed made it
    twice as noisy across runs.
    """
    samples = tail = open_legs or passes
    if open_legs:
        tail = sorted(open_legs, key=lambda p: -p.speed)[:max(3, len(open_legs) // 2)]
    return (statistics.median(p.latency[0] * p.speed for p in samples),
            statistics.median(p.latency[1] * p.speed for p in tail))


def end_to_end(setups, gate, passes, open_legs) -> dict:
    """Medians over passes, in reference seconds."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "events_per_s": statistics.median(events_per_ref_s(p) for p in passes),
        "cpu_us_per_event": statistics.median(
            p.cpu_s * p.speed / p.events * 1e6 for p in passes),
        "setup_s": statistics.median(s.seconds * s.speed for s in setups),
        "peak_rss_mb": rss_mb,
        "latency_p50_us": latency_percentiles(passes, open_legs)[0] * 1e6,
        "sim_total_io": gate.sim_total_io,
    }


class RunCounters:
    """Per-run counters read after each traced ``Simulation``/service run."""

    def __init__(self) -> None:
        self.runs: list[dict] = []
        self.services: list = []

    def on_sim_run(self, sim, _result) -> None:
        store = sim.store
        redo, wal = sim.redo_log, sim.tx.wal
        self.runs.append({
            "traced": sim.collector.traced_objects_total,
            "collections": sim.collector.collections_performed,
            "hits": store.buffer.stats.hits,
            "misses": store.buffer.stats.misses,
            "app_io": store.iostats.application_total,
            "gc_io": store.iostats.collector_total,
            "partitions": store.partition_count,
            "redo": redo.appended_total if redo is not None else 0,
            "forces": wal.stats.forces if wal is not None else 0,
        })

    def on_service_run(self, service, report) -> None:
        self.on_sim_run(service.sim, None)
        self.services.append(report)


def traced_run(workload, budget_s: float, min_passes: int):
    """Timed passes under the layer wrappers and the host-GC recorder."""
    from tracing import HostGcRecorder, LayerTracer

    counters = RunCounters()
    tracer = LayerTracer(counters.on_sim_run, counters.on_service_run)
    stats = workload.trace_cache.stats if workload.kind == "oo7" else None
    before = (stats.resolutions, stats.builds) if stats else (0, 0)
    with tracer, HostGcRecorder(tracer.recorder) as host:
        passes, _ = measure(workload, budget_s, min_passes, open_loop=False)
    after = (stats.resolutions, stats.builds) if stats else (0, 0)
    cache_delta = (after[0] - before[0], after[1] - before[1])
    return passes, tracer, host, counters, cache_delta


def per_layer(workload, setups, gate, passes, open_legs, traced) -> dict:
    """Per-pass layer figures from the traced run, in host seconds."""
    t_passes, tracer, host, counters, cache_delta = traced
    n = len(t_passes)
    spans = tracer.recorder.self_times()

    def total(name, which=0):
        return sum(s[which] for s in spans.get(name, ()))

    collects = [d for d, _ in spans.get("gc.collect", ())]
    checkpoint_ms, current = [], 0.0
    for name, start, end, _parent in tracer.recorder.spans:
        if name.startswith("tx.checkpoint."):
            current += end - start
            if name == "tx.checkpoint.install":
                checkpoint_ms.append(current * 1e3)
                current = 0.0
    runs = counters.runs
    accesses = sum(r["hits"] + r["misses"] for r in runs)
    reports = counters.services
    untraced_eps = statistics.median(events_per_ref_s(p) for p in passes)
    traced_eps = statistics.median(events_per_ref_s(p) for p in t_passes)
    timed_wall = sum(p.wall_s for p in t_passes)
    self_total = sum(s[1] for rows in spans.values() for s in rows)
    replay_self = total("sim.run", 1) / n
    resolutions, builds = cache_delta
    lags = [p.lag_p99 for p in open_legs]
    return {
        "latency_p99_us": latency_percentiles(passes, open_legs)[1] * 1e6,
        "model.db_bytes": gate.sim_db_bytes,
        "model.tracking_error_pct": gate.tracking_error_pct,
        "workload.build_s": statistics.median(s.build_s for s in setups),
        "workload.compile_s": statistics.median(s.compile_s for s in setups),
        "workload.events": setups[-1].events,
        "engine.overhead_s": (total("engine.batch") - total("sim.run")) / n,
        "engine.trace_cache_hit_rate": (
            (resolutions - builds) / resolutions if resolutions else 0.0),
        "engine.trace_builds": builds,
        "sim.replay_self_s": replay_self,
        "sim.replay_events_per_s": (
            t_passes[0].events / replay_self if replay_self else 0.0),
        "gc.collections": len(collects) / n,
        "gc.collect_s": sum(collects) / n,
        "gc.pause_p50_ms": percentile(collects, 50) * 1e3 if collects else 0.0,
        "gc.pause_max_ms": max(collects) * 1e3 if collects else 0.0,
        "gc.traced_objects_per_collection": (
            sum(r["traced"] for r in runs) / sum(r["collections"] for r in runs)
            if runs and sum(r["collections"] for r in runs) else 0.0),
        "gc.select_s": total("gc.select") / n,
        "gc.share_of_run_pct": (
            100.0 * sum(collects) / (total("sim.run") + total("service.run"))),
        "core.next_trigger_s": total("core.next_trigger", 1) / n,
        "core.estimate_calls": len(spans.get("core.estimate", ())) / n,
        "core.estimate_s": total("core.estimate") / n,
        "storage.app_io": sum(r["app_io"] for r in runs) / n,
        "storage.gc_io": sum(r["gc_io"] for r in runs) / n,
        "storage.buffer_hit_rate": (
            sum(r["hits"] for r in runs) / accesses if accesses else 0.0),
        "storage.partitions": (
            statistics.mean(r["partitions"] for r in runs) if runs else 0.0),
        "tx.checkpoints": len(checkpoint_ms) / n,
        "tx.checkpoint_s": sum(checkpoint_ms) / 1e3 / n,
        "tx.checkpoint_max_ms": max(checkpoint_ms, default=0.0),
        "tx.redo_records": sum(r["redo"] for r in runs) / n,
        "tx.wal_forces": sum(r["forces"] for r in runs) / n,
        "service.loop_self_s": total("service.run", 1) / n,
        "service.generator_lag_ms": statistics.median(lags) * 1e3 if lags else 0.0,
        "service.events_applied": (
            sum(r.events_applied for r in reports) / n if reports else 0.0),
        "service.heap_peak_bytes": max(
            (r.heap_peak_bytes for r in reports), default=0),
        "host.pygc_collections": len(host.pauses) / n,
        "host.pygc_s": sum(host.pauses) / n,
        "host.pygc_max_ms": max(host.pauses, default=0.0) * 1e3,
        "trace_overhead_pct": (untraced_eps - traced_eps) / untraced_eps * 100.0,
        "bench.host_speed": statistics.median(p.speed for p in passes + t_passes),
        # Traced pass time outside every span: the benchmark's own per-pass
        # work, and calls that no wrapper covers.
        "trace.unattributed_pct": (timed_wall - self_total) / timed_wall * 100.0,
        "failed_frac": len(workload.errors) / max(workload.attempted, 1),
    }


def check_reference(workload_name: str, seed: int, size: str, digests: dict):
    """Mismatches against ``reference.json``; None when it does not cover
    this seed and size."""
    reference = json.loads(REFERENCE.read_text())
    if seed != reference["seed"] or size != reference["size"]:
        return None
    expected = reference["digests"].get(workload_name)
    if expected is None:
        return [f"{workload_name}: no reference digests recorded"]
    return [
        f"{workload_name} {key}: digest {digests.get(key)} != reference {value}"
        for key, value in expected.items()
        if digests.get(key) != value
    ]


def print_table(title: str, metrics: dict, units: dict) -> None:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are not both computed and listed in BENCHMARK.json")
    print(title)
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oo7-sparse", "oo7-dense", "serve-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import MIN_PASSES, SIZES, make_workload
    except ImportError as exc:
        print(f"cannot load the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.size)
    setups = set_up(workload, args.seed, SIZES[args.size]["setup_repeats"])
    gate = workload.gate()
    mismatches = check_reference(args.workload, args.seed, args.size, gate.digests)
    if mismatches is not None:
        workload.attempted += 1
        workload.fail("reference digests", mismatches)

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    passes, open_legs = measure(workload, untraced_budget, MIN_PASSES)
    e2e = end_to_end(setups, gate, passes, open_legs)
    print(f"{args.workload}  seed {args.seed}  {len(passes)} passes"
          + (f" + {len(open_legs)} open-loop legs at "
             f"{workload.offered_rate:.0f} events/s" if open_legs else ""))
    if open_legs:
        print(f"  latency percentiles per leg over {open_legs[0].samples} stream "
              f"events (open loop); median of {len(open_legs)} legs")
    else:
        print(f"  latency_p50_us is the wall time of a sweep's median policy "
              f"cell (nearest rank of {passes[0].samples}); median of "
              f"{len(passes)} sweeps")
    print(f"  times in reference seconds; host speed "
          f"{statistics.median(p.speed for p in passes):.3f} of the reference "
          f"(raw events/s {statistics.median(p.events / p.wall_s for p in passes):.6g})")
    for key, digest in sorted(gate.digests.items()):
        print(f"  digest {key} {digest}")
    e2e_units, layer_units = metric_units()
    print_table("end-to-end", e2e, e2e_units)
    metrics, units = e2e, e2e_units

    if args.trace:
        from tracing import LAYER_MOVES

        traced = traced_run(workload, args.seconds / 2, MIN_PASSES)
        layers = per_layer(workload, setups, gate, passes, open_legs, traced)
        tracer = traced[1]
        tracer.recorder.dump(
            SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        print_table(f"per-layer (traced, per pass; {len(traced[0])} passes)",
                    layers, layer_units)
        for layer, moves in LAYER_MOVES.items():
            print(f"  {layer:<8} should move {moves}")
        if tracer.missing:
            print(f"  not traced (targets missing): {', '.join(tracer.missing)}")
        metrics, units = layers, layer_units

    for error in workload.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    correct = not workload.errors
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": len(workload.errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
