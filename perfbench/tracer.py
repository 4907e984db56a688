"""In-memory span recorder wrapped around each layer's public entry points.

The traced run installs :func:`install` before anything is built, so
every instance the workload creates calls through the wrappers. A span
is ``(name, start, end, parent, round)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``round`` the timed-round index the
span started in (-1 during build and warm-up). Spans live in flat
arrays while the run lasts and are written out once at the end.

``Network.send``/``recv`` run up to tens of thousands of times per round
(the sim collector polls ``recv``), and never call another traced entry
point. They are *leaf* entry points: each ``(parent, round)`` keeps one
aggregate span holding the call count and the summed time, which bounds
the trace's memory by rounds instead of messages.

No program source changes: the wrappers replace class attributes (and
the three module globals ``repro.fl.trainer`` calls) in this process
only.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "ENTRY_POINTS", "LEAVES", "install"]


class Tracer:
    """Flat-array span store plus per-round counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self._stack: list[int] = []
        #: (parent, round, name id) -> [calls, seconds] of leaf entry points
        self.leaves: dict[tuple[int, int, int], list] = {}
        #: timed-round index new spans belong to (-1 = untimed)
        self.round_id = -1
        #: (round, name) -> count, for counters that are not spans
        self.counts: dict[tuple[int, str], int] = {}
        self.gc_pauses: list[tuple[int, int, float]] = []
        self._gc_start = 0.0

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, name: str, n: int = 1) -> None:
        key = (self.round_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str):
        """``fn`` wrapped so each call records one span named ``name``."""
        nid = self.name_id(name)
        start, end, names = self.start, self.end, self.name
        parent, rounds, stack = self.parent, self.round, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            rounds.append(tracer.round_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_leaf(self, fn, name: str):
        """Like :meth:`wrap`, aggregated per ``(parent, round)``."""
        nid = self.name_id(name)
        leaves, stack = self.leaves, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (stack[-1] if stack else -1, tracer.round_id, nid)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return traced

    # -- garbage collector pauses (gc.callbacks) ------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(
                (self.round_id, info["generation"], time.perf_counter() - self._gc_start)
            )

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, leaf aggregates appended (``calls`` > 1 and
        ``start`` 0), with each span's self time."""
        keys = list(self.leaves)
        acc = np.array([self.leaves[k] for k in keys], dtype=np.float64).reshape(-1, 2)
        meta = np.array(keys, dtype=np.int32).reshape(-1, 3)
        spans = len(self.start)
        start = np.concatenate([np.frombuffer(self.start), np.zeros(len(keys))])
        end = np.concatenate([np.frombuffer(self.end), acc[:, 1]])
        parent = np.concatenate([np.frombuffer(self.parent, dtype=np.int32), meta[:, 0]])
        rounds = np.concatenate([np.frombuffer(self.round, dtype=np.int32), meta[:, 1]])
        names = np.concatenate([np.frombuffer(self.name, dtype=np.int32), meta[:, 2]])
        calls = np.concatenate([np.ones(spans), acc[:, 0]])
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {
            "name": names,
            "start": start,
            "end": end,
            "parent": parent,
            "round": rounds,
            "calls": calls,
            "dur": dur,
            "self": dur - covered,
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        arr = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: arr[k] for k in ("name", "start", "end", "parent", "round", "calls")},
        )


#: (module, owner attribute path, method, span name) of every wrapped
#: entry point. ``owner`` None means a module-level function.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.fl.trainer", "FederatedTrainer", "run_round", "trainer.round"),
    ("repro.comm.channel", "Network", "send", "comm.send"),
    ("repro.comm.channel", "Network", "recv", "comm.recv"),
    ("repro.fl.fleet_compute", "FleetLocalEngine", "__init__", "fl.fleet_build"),
    ("repro.fl.fleet_compute", "FleetLocalEngine", "compute_updates", "fl.local"),
    ("repro.nn.fleet", "FleetSequential", "__init__", "nn.fleet_build"),
    ("repro.nn.fleet", "FleetSequential", "forward", "nn.forward"),
    ("repro.nn.fleet", "FleetSequential", "backward", "nn.backward"),
    ("repro.nn.fleet", "FleetSequential", "sgd_step", "nn.step"),
    ("repro.core.fifl", "FIFLMechanism", "process_round", "core.mechanism"),
    ("repro.fl.trainer", None, "evaluate", "fl.evaluate"),
    ("repro.fl.trainer", None, "fedavg", "fl.aggregate"),
    ("repro.fl.trainer", None, "recombine", "fl.aggregate"),
    ("repro.population.sampler", "UniformSampler", "sample", "population.sample"),
    ("repro.population.sampler", "ReputationWeightedSampler", "sample", "population.sample"),
    ("repro.population.sampler", "AvailabilityAwareSampler", "sample", "population.sample"),
    ("repro.population.population", "WorkerPopulation", "checkout", "population.checkout"),
    ("repro.population.population", "WorkerPopulation", "materialize", "population.materialize"),
    ("repro.population.population", "WorkerPopulation", "write_reputations", "population.write_reputations"),
    ("repro.sim.round_sim", "SimRoundRunner", "collect", "sim.collect"),
    ("repro.sim.kernel", "Simulator", "run", "sim.drain"),
    ("repro.service.service", "FederationService", "save", "service.save"),
    ("repro.ledger.blockchain", "Blockchain", "append", "ledger.append"),
    ("repro.telemetry.core", "Telemetry", "flush", "telemetry.flush"),
    ("repro.monitor.monitor", "Monitor", "emit", "monitor.emit"),
)


#: entry points recorded as per-(parent, round) aggregates
LEAVES = frozenset({"comm.send", "comm.recv"})


def _count_cache_hits(tracer: Tracer, materialize):
    """Count population cache hits: a miss grows the LRU cache by one."""

    @functools.wraps(materialize)
    def counted(self, worker_id):
        before = self.cached_count
        worker = materialize(self, worker_id)
        tracer.count("population.materialize_calls")
        if self.cached_count == before:
            tracer.count("population.cache_hits")
        return worker

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (process-wide)."""
    import importlib

    for module_name, owner_name, attr, span in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        fn = getattr(owner, attr)
        if span == "population.materialize":
            fn = _count_cache_hits(tracer, fn)
        wrap = tracer.wrap_leaf if span in LEAVES else tracer.wrap
        setattr(owner, attr, wrap(fn, span))
