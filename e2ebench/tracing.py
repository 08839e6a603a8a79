"""Span tracing for the benchmark's traced run, installed from outside.

The program under test carries no spans of its own at the calls this
benchmark cares about, so the traced run wraps the public entry point of
each layer (class attributes, and one module attribute for the checkpoint
builder the service calls) for the duration of that run only. Wrappers
keep spans as ``[name, start, end, parent]`` rows in memory; ``run.py``
writes them out when the run ends. A layer's self time is its spans'
duration minus the time covered by their child spans.

Untraced runs install nothing, so end-to-end metrics never pay for this.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable, Optional

#: Which end-to-end metric each per-layer metric group should move, and on
#: which workload. Printed with the per-layer table; a change that claims a
#: gain in one layer names the row it expects to move.
LAYER_MOVES = {
    "workload": "setup_s (all workloads)",
    "engine": "events_per_s on oo7-sparse",
    "sim": "events_per_s on oo7-sparse (most) and oo7-dense (less)",
    "gc": "events_per_s on oo7-dense; latency_p99_us on serve-churn",
    "core": "tracking_error_pct (under 1% of run time)",
    "storage": "sim_total_io, sim_db_bytes (counts only: kernels are inlined)",
    "tx": "latency_p99_us and events_per_s on serve-churn; zero on OO7",
    "service": "events_per_s and latency_p50_us on serve-churn",
    "host": "latency_p99_us on serve-churn (CPython cyclic-GC stalls)",
}


class SpanRecorder:
    """In-memory span log with a parent stack (single-threaded use)."""

    def __init__(self) -> None:
        #: Rows of ``[name, start, end, parent_index]`` (-1: no parent).
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self) -> dict[str, list[tuple[float, float]]]:
        """Name → ``[(duration, self_time), ...]`` over every closed span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[tuple[float, float]]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start, end - start - child_time[i]))
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


class HostGcRecorder:
    """CPython cyclic-GC pauses, recorded through ``gc.callbacks``.

    Only collections that start inside a span count: the benchmark's own
    collections between passes are not the program's.
    """

    def __init__(self, spans: SpanRecorder) -> None:
        self.pauses: list[float] = []
        self._spans = spans
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            inside = self._spans.innermost() is not None
            self._started = time.perf_counter() if inside else None
        elif self._started is not None:
            self.pauses.append(time.perf_counter() - self._started)

    def __enter__(self) -> "HostGcRecorder":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def _wrap(recorder: SpanRecorder, fn: Callable, name: str,
          after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        # A subclass calling its parent's wrapped method stays one span.
        if recorder.innermost() == name:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(args[0], result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _subclasses(cls: type) -> list[type]:
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


class LayerTracer:
    """Installs span wrappers on every layer's public calls; undoes them.

    ``on_sim_run(sim, result)`` is called after each ``Simulation.run`` and
    ``on_service_run(service, report)`` after each ``GcService.run``, so
    ``run.py`` can read per-run counters (collector, buffer pool, logs)
    that the public results do not carry.
    """

    def __init__(self, on_sim_run: Callable, on_service_run: Callable) -> None:
        self.recorder = SpanRecorder()
        self._on_sim_run = on_sim_run
        self._on_service_run = on_service_run
        self._patched: list[tuple[object, str, object]] = []
        #: Wrap targets that no longer exist (reported, never fatal).
        self.missing: list[str] = []

    def _patch(self, owner, attr: str, name: str, after=None) -> bool:
        # Classes are patched only where they define the method, so a
        # subclass that inherits it goes through its parent's wrapper.
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, _wrap(self.recorder, original, name, after))
        self._patched.append((owner, attr, original))
        return True

    def _patch_family(self, base: type, attr: str, name: str) -> None:
        if not any([self._patch(k, attr, name) for k in _subclasses(base)]):
            self.missing.append(f"{base.__name__}.{attr}")

    def _require(self, owner, attr: str, name: str, after=None) -> None:
        if not self._patch(owner, attr, name, after):
            label = getattr(owner, "__name__", repr(owner))
            self.missing.append(f"{label}.{attr}")

    def __enter__(self) -> "LayerTracer":
        import repro.service.server as server
        from repro.core.estimators import GarbageEstimator
        from repro.core.rate_policy import RatePolicy
        from repro.gc.collector import CopyingCollector
        from repro.gc.selection import PartitionSelectionPolicy
        from repro.sim.engine import ParallelRunner
        from repro.sim.simulator import Simulation
        from repro.tx.recovery import RedoLog
        from repro.tx.wal import WriteAheadLog
        from repro.workload.trace_cache import TraceCache

        try:
            self._require(ParallelRunner, "run_batch", "engine.batch")
            self._require(Simulation, "run", "sim.run", self._on_sim_run)
            self._require(server.GcService, "run", "service.run",
                          self._on_service_run)
            self._require(TraceCache, "get_or_build", "engine.trace_cache")
            self._patch_family(CopyingCollector, "collect", "gc.collect")
            self._patch_family(PartitionSelectionPolicy, "select", "gc.select")
            self._patch_family(RatePolicy, "next_trigger", "core.next_trigger")
            self._patch_family(GarbageEstimator, "estimate", "core.estimate")
            self._require(server, "build_checkpoint", "tx.checkpoint.build")
            self._require(WriteAheadLog, "checkpoint", "tx.checkpoint.wal")
            self._require(RedoLog, "install_checkpoint", "tx.checkpoint.install")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
