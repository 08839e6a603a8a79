"""The benchmark's three workloads, each driven through public entry points.

* ``oo7-sparse`` / ``oo7-dense`` replay the paper's OO7 Small' trace
  (GenDB -> Reorg1 -> Traverse -> Reorg2) through
  ``run_experiment_batch(jobs=1)`` with no result cache and an in-memory
  trace cache: one *pass* is one sweep of every policy cell. Sparse
  settings leave replay dominant; dense settings make the collector
  dominant.
* ``serve-churn`` runs ``GcService`` over pre-generated ``oltp-churn`` +
  ``read-browse`` tenant streams with SAGA 0.3 and a checkpoint every 20k
  events: closed-loop capacity legs alternate with open-loop legs at a
  fixed offered rate. One pass is one capacity leg.

Every configuration is the program's default except the policy, the
workload and the service cadence named above; no interpreter, collection
or reachability mode is chosen here, so such knobs can disappear from the
program without this file changing.

Each workload also runs a correctness gate outside its timed region: the
store invariants (``validate_store(strict=True)``), the I/O accounting
identities between the program's separate ledgers, determinism against
the timed passes, and digests that are compared with ``reference.json``
on the reference seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.common import SAGA_PREAMBLE, SAIO_PREAMBLE, oo7_spec
from repro.oo7.config import SMALL_PRIME, TINY
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import ReplayableStream, tenant_stream
from repro.sim.engine import run_experiment_batch
from repro.sim.simulator import Simulation
from repro.sim.spec import PolicySpec, build_policy, build_selection, build_workload
from repro.storage.validation import StoreInvariantError, validate_store
from repro.workload.tenants import tenant_mix
from repro.workload.trace_cache import TraceCache

#: Inputs per size. ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {"oo7": SMALL_PRIME, "serve_events": 50_000, "setup_repeats": 5},
    "tiny": {"oo7": TINY, "serve_events": 4_000, "setup_repeats": 2},
}
#: Fewest passes a measurement makes, whatever its time budget.
MIN_PASSES = 3


def summary_digest(summary) -> str:
    """SHA-256 of a summary's fields; floats keep every digit (repr)."""
    blob = json.dumps(dataclasses.asdict(summary), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def accounting_errors(summary, store, records) -> list[str]:
    """The accounting identities every finished run must satisfy.

    Each compares two ledgers kept apart by the program: the I/O the
    collector reports per collection (``records``) against the store's
    per-interval I/O history, that history against the run's I/O totals,
    and the bytes reclaimed per collection against the store's garbage
    tracker.
    """
    errors = []
    iostats = store.iostats
    history = iostats.history
    if len(records) != summary.collections or len(history) != len(records):
        errors.append(f"{len(records)} collection records and {len(history)} "
                      f"I/O intervals for {summary.collections} collections")
    elif [h.gc for h in history] != [r.gc_io for r in records]:
        errors.append("collector I/O per interval != I/O of its collection")
    open_app, open_gc = iostats.since_last_collection()
    if (sum(h.app for h in history) + open_app != summary.app_io_total
            or sum(h.gc for h in history) + open_gc != summary.gc_io_total):
        errors.append("per-interval I/O does not add up to the run's I/O totals")
    if sum(r.reclaimed_bytes for r in records) != summary.total_reclaimed_bytes:
        errors.append("bytes reclaimed per collection != store's reclaimed total")
    if summary.total_reclaimed_bytes > summary.total_garbage_generated:
        errors.append("reclaimed garbage exceeds generated garbage")
    return errors


def validation_errors(store) -> list[str]:
    try:
        validate_store(store, strict=True)
    except StoreInvariantError as exc:
        return [f"store invariant violated: {exc}"]
    return []


def saio_tracking_error(history, goal: float, preamble: int) -> float:
    """I/O-weighted mean |GC share of an interval's I/O - goal|.

    Per interval rather than per run: the run-level share of a well-tuned
    controller sits within a fraction of a percent of its goal, so its
    error is dominated by which seed ran; the per-interval deviation
    measures how tightly the controller holds the goal while it runs.
    """
    intervals = history[preamble:]
    total = sum(r.total for r in intervals)
    if not total:
        return 0.0
    return sum(abs(r.gc_fraction - goal) * r.total for r in intervals) / total


def saga_tracking_error(records, goal: float, preamble: int) -> float:
    """Mean |garbage fraction after a collection - goal|, past the preamble."""
    records = records[preamble:]
    if not records:
        return 0.0
    return statistics.mean(abs(r.actual_garbage_fraction - goal) for r in records)


@dataclass
class PassResult:
    """One timed pass (a sweep of every cell, or one service leg)."""

    wall_s: float
    cpu_s: float
    events: int
    #: Per-request latencies in seconds (cells, or stream events).
    latencies: list = field(default_factory=list)
    #: How late the load generator ran, per event (open-loop legs only).
    lags: array = field(default_factory=lambda: array("d"))
    #: (p50, p99) of ``latencies``, their count, and the p99 of ``lags``:
    #: what ``run.py`` keeps when it drops the samples.
    latency: tuple = ()
    samples: int = 0
    lag_p99: float = 0.0
    #: Host speed during the pass relative to the reference (set by the
    #: benchmark from its calibration loop).
    speed: float = 1.0


@dataclass
class GateResult:
    """The modelled outcomes and digests of the correctness-gate runs."""

    digests: dict = field(default_factory=dict)
    sim_total_io: int = 0
    sim_db_bytes: float = 0.0
    tracking_error_pct: float = 0.0


@dataclass
class SetupResult:
    """One set-up: input generation, compilation and lazy priming."""

    seconds: float
    build_s: float
    compile_s: float
    events: int
    #: Host speed relative to the reference (set by ``run.py``).
    speed: float = 1.0


class Workload:
    """Counts operations and the ones that failed a correctness check."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seed = 0
        self.attempted = 0
        #: One line per failed operation, naming what failed.
        self.errors: list[str] = []

    def fail(self, label: str, errors: list[str]) -> None:
        if errors:
            self.errors.append(f"{self.name} {label}: " + "; ".join(errors))


class Oo7Sweep(Workload):
    """A sweep of fixed / SAIO / SAGA cells over one OO7 trace."""

    kind = "oo7"

    def __init__(self, name: str, fixed: tuple, saio: Optional[float],
                 saga: Optional[float], size: str) -> None:
        super().__init__(name)
        config = SIZES[size]["oo7"]
        self.goals: list[tuple[int, str, float]] = []
        self.specs = [
            oo7_spec(PolicySpec("fixed", {"overwrites_per_collection": rate}),
                     config, SAGA_PREAMBLE, label=f"fixed@{rate}")
            for rate in fixed
        ]
        if saio is not None:
            self.goals.append((len(self.specs), "saio", saio))
            self.specs.append(oo7_spec(PolicySpec("saio", {"io_fraction": saio}),
                                       config, SAIO_PREAMBLE, label=f"saio@{saio}"))
        if saga is not None:
            self.goals.append((len(self.specs), "saga", saga))
            self.specs.append(
                oo7_spec(PolicySpec("saga", {"garbage_fraction": saga}),
                         config, SAGA_PREAMBLE, label=f"saga@{saga}"))
        self.trace_cache: Optional[TraceCache] = None
        #: The gate's summaries, which every timed sweep must reproduce.
        self.reference: list = []

    # -- set-up ---------------------------------------------------------

    def setup(self, seed: int) -> SetupResult:
        """Generate, compile and prime the trace from an empty trace cache.

        Priming is a zero-event resume at the end of the trace: the
        interpreter builds its per-trace state and replays nothing.
        """
        self.seed = seed
        workload = self.specs[0].workload
        cache = TraceCache(None)
        built = []

        def builder():
            began = time.perf_counter()
            events = list(build_workload(workload, seed))
            built.append(time.perf_counter() - began)
            return events

        began = time.perf_counter()
        trace = cache.get_or_build(workload, seed, builder=builder)
        compiled = time.perf_counter()
        spec = self.specs[0]
        Simulation(policy=build_policy(spec.policy, seed),
                   selection=build_selection(spec.selection, seed),
                   config=spec.sim).run(trace, start_index=len(trace))
        self.trace_cache = cache
        return SetupResult(time.perf_counter() - began, built[0],
                           compiled - began - built[0], len(trace))

    # -- timed passes ---------------------------------------------------

    def run_pass(self) -> PassResult:
        """One timed sweep; each cell must equal the gate's run of it, so
        ``gate()`` runs first."""
        latencies = []
        began_cpu = time.process_time()
        began = time.perf_counter()
        aggregates = run_experiment_batch(
            self.specs, seeds=[self.seed], jobs=1, trace_cache=self.trace_cache,
            progress=lambda outcome: latencies.append(outcome.wall_time),
        )
        wall = time.perf_counter() - began
        cpu = time.process_time() - began_cpu
        events = 0
        for spec, aggregate, expected in zip(self.specs, aggregates, self.reference):
            self.attempted += 1
            if aggregate.failures or len(aggregate.summaries) != 1:
                self.fail(spec.label, [f"run failed: {aggregate.failures}"])
                continue
            summary = aggregate.summaries[0]
            events += summary.events
            if summary != expected:
                self.fail(spec.label, ["differs from the gate's direct run"])
        return PassResult(wall, cpu, events, latencies)

    # -- correctness gate -----------------------------------------------

    def gate(self) -> GateResult:
        """Run every cell directly on ``Simulation`` and check it."""
        out = GateResult()
        goals = {index: (kind, goal) for index, kind, goal in self.goals}
        tracking = []
        summaries = []
        for index, spec in enumerate(self.specs):
            sim = Simulation(policy=build_policy(spec.policy, self.seed),
                             selection=build_selection(spec.selection, self.seed),
                             config=spec.sim)
            result = sim.run(self.trace_cache.get_or_build(spec.workload, self.seed))
            summary, store = result.summary, result.store
            self.attempted += 1
            self.fail(spec.label, validation_errors(store)
                      + accounting_errors(summary, store, result.collections))
            summaries.append(summary)
            out.digests[spec.label] = summary_digest(summary)
            out.sim_total_io += summary.app_io_total + summary.gc_io_total
            out.sim_db_bytes += summary.final_db_size / len(self.specs)
            if index in goals:
                kind, goal = goals[index]
                preamble = spec.sim.preamble_collections
                if kind == "saio":
                    tracking.append(saio_tracking_error(
                        store.iostats.history, goal, preamble))
                else:
                    tracking.append(
                        saga_tracking_error(result.collections, goal, preamble))
        out.tracking_error_pct = 100.0 * statistics.mean(tracking)
        self.reference = summaries
        return out


class ServeChurn(Workload):
    """``GcService`` over pre-generated two-tenant streams.

    Each seed yields ``STREAMS`` independent streams, and legs take them in
    turn: one stream's modelled heap after 50k events depends so much on
    its seed (30-120 KB live) that collection and checkpoint stalls, and
    with them the latency tail, would otherwise measure the seed.
    """

    kind = "serve"
    STREAMS = 2
    profiles = ("oltp-churn", "read-browse")
    saga_goal = 0.3
    checkpoint_every = 20_000
    #: Offered load of the open-loop legs, in events per reference second:
    #: about a quarter of the service's capacity when this benchmark was
    #: written. At half capacity, queueing behind back-to-back stalls
    #: amplified the host's jitter and a leg's p99 ranged 1.3-5 ms between
    #: legs; here it tracks the stalls themselves. Fixed, so a faster
    #: service is measured at the same load.
    offered_rate = 20_000.0

    def __init__(self, name: str, size: str) -> None:
        super().__init__(name)
        self.n_events = SIZES[size]["serve_events"]
        self.streams: list[list] = []
        #: Each stream's first final-state digest, which its legs reproduce.
        self.digests: list[Optional[str]] = [None] * self.STREAMS
        self._legs = 0

    def setup(self, seed: int) -> SetupResult:
        """Generate the streams and take them out of CPython's cyclic GC.

        The streams stand for requests arriving from outside; left tracked,
        their objects make every full collection of the host's cyclic GC
        walk them, and the open-loop tail would measure the benchmark.
        """
        self.seed = seed
        if self.streams:
            gc.unfreeze()
            self.streams = []
        began = time.perf_counter()
        config = tenant_mix(list(self.profiles))
        self.streams = [
            list(itertools.islice(
                tenant_stream(config, seed=seed * self.STREAMS + j).events_from(0),
                self.n_events))
            for j in range(self.STREAMS)
        ]
        built = time.perf_counter()
        gc.collect()
        gc.freeze()
        return SetupResult(time.perf_counter() - began, built - began, 0.0,
                           self.n_events)

    def _leg(self, paced=None) -> tuple[PassResult, GcService]:
        """Run the next stream in turn, timed, then gate it untimed."""
        index = self._legs % self.STREAMS
        self._legs += 1
        events = self.streams[index]
        factory = (lambda: paced(events)) if paced else (lambda: iter(events))
        policy = build_policy(
            PolicySpec("saga", {"garbage_fraction": self.saga_goal}), self.seed)
        svc = GcService(
            policy=policy, stream=ReplayableStream(factory, label=self.name),
            service=ServiceConfig(checkpoint_every_events=self.checkpoint_every))
        began_cpu = time.process_time()
        began = time.perf_counter()
        report = svc.run()
        wall = time.perf_counter() - began
        cpu = time.process_time() - began_cpu

        self.attempted += 1
        store = svc.sim.store
        summary = svc.sim.sampler.summary(store, store.iostats)
        errors = validation_errors(store) + accounting_errors(
            summary, store, svc.sim.sampler.collection_records)
        if report.events_applied != len(events) or report.stopped != "end-of-stream":
            errors.append(f"applied {report.events_applied} of "
                          f"{len(events)} events ({report.stopped})")
        if self.digests[index] is None:
            self.digests[index] = report.final_digest
        elif report.final_digest != self.digests[index]:
            errors.append(f"stream {index}: final state differs from its first leg's")
        self.fail(f"leg {self._legs}", errors)
        return PassResult(wall, cpu, report.events_seen), svc

    def run_pass(self) -> PassResult:
        return self._leg()[0]

    def open_loop_pass(self, rate: float) -> PassResult:
        """Offer the next stream at ``rate`` events/s whatever the service does.

        Event ``i`` is due at ``start + i / rate``. Its latency runs from
        when it was due until the service pulls event ``i + 1``, so a stall
        also counts against every event queued behind it. The generator's
        own lag is how much later than ``max(due, asked)`` it handed the
        event over: its sleep overshoot, not the service's backlog.
        """
        latencies = array("d")
        lags = array("d")
        period = 1.0 / rate
        clock = time.perf_counter

        def paced(events):
            start = clock() + 0.001
            due_prev = None
            for i, event in enumerate(events):
                due = start + i * period
                asked = now = clock()
                if due_prev is not None:
                    latencies.append(asked - due_prev)
                if due - now > 0.002:
                    time.sleep(due - now - 0.001)
                while now < due:
                    now = clock()
                lags.append(now - max(due, asked))
                due_prev = due
                yield event
            if due_prev is not None:
                latencies.append(clock() - due_prev)

        result, _ = self._leg(paced)
        result.latencies, result.lags = latencies, lags
        return result

    def gate(self) -> GateResult:
        """One leg per stream for the modelled outcomes and digests."""
        out = GateResult()
        tracking = []
        for index in range(self.STREAMS):
            _, svc = self._leg()
            store = svc.sim.store
            summary = svc.sim.sampler.summary(store, store.iostats)
            out.digests[f"stream{index}.final_digest"] = self.digests[index]
            out.digests[f"stream{index}.summary"] = summary_digest(summary)
            out.sim_total_io += summary.app_io_total + summary.gc_io_total
            out.sim_db_bytes += summary.final_db_size / self.STREAMS
            tracking.append(saga_tracking_error(
                svc.sim.sampler.collection_records, self.saga_goal,
                svc.sim.config.preamble_collections))
        out.tracking_error_pct = 100.0 * statistics.mean(tracking)
        return out


def make_workload(name: str, size: str):
    if name == "oo7-sparse":
        return Oo7Sweep(name, (400, 600, 800), 0.05, 0.30, size)
    if name == "oo7-dense":
        return Oo7Sweep(name, (20, 35, 50), 0.30, None, size)
    if name == "serve-churn":
        return ServeChurn(name, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oo7-sparse", "oo7-dense", "serve-churn")
