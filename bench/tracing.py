"""Per-layer attribution for one traced pass, measured from outside ``src/``.

:func:`install` wraps each layer's public entry points (methods patched
on their class, functions patched in the module that imported them).  A
wrapped call records nothing unless an op is running, so set-up and the
output checks stay out of the numbers, and pool workers (which inherit
the wrappers by fork) record nothing either.

Every wrapped call is a span of the repository's ``PhaseProfiler``, which
keeps each name's calls, total and self time, where self = duration minus
the time of wrapped calls made inside it.  The op itself is the root
span, so its self time is the time no layer claims (``unattributed_s``),
and the layers' self times plus ``unattributed_s`` add up to the op wall
time.  Full span records are kept only for ops and coarse entries (runs,
executor calls, placement), under a cap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in reporting order; a span name's layer is its first dotted part.
LAYERS = ("exec", "cluster", "core", "policies", "gpu", "fastpath",
          "pagemove", "vm", "hbm")

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: Dict[str, str] = {
    "startup.import_s": "s",
    "startup.numpy_loaded": "flag",
    "exec.run_calls": "count",
    "exec.run_s": "s",
    "exec.job_s": "s",
    "exec.critical_s": "s",
    "exec.overhead_s": "s",
    "cluster.fleet_run_s": "s",
    "cluster.place_calls": "count",
    "cluster.place_s": "s",
    "cluster.place_nodes_scanned": "count",
    "cluster.place_fail_frac": "ratio",
    "cluster.shard_s": "s",
    "cluster.coord_self_s": "s",
    "cluster.admissions": "count",
    "cluster.departures": "count",
    "cluster.migrations": "count",
    "cluster.waiting_at_horizon": "count",
    "core.runs": "count",
    "core.run_s": "s",
    "core.epochs": "count",
    "core.repartitions": "count",
    "core.us_per_epoch": "us",
    "policies.epoch_end_calls": "count",
    "policies.epoch_end_s": "s",
    "policies.partition_calls": "count",
    "policies.partition_s": "s",
    "policies.repartition_ratio": "ratio",
    "gpu.throughput_calls": "count",
    "gpu.throughput_s": "s",
    "gpu.batch_calls": "count",
    "gpu.batch_s": "s",
    "fastpath.step_calls": "count",
    "fastpath.step_s": "s",
    "fastpath.batch_s": "s",
    "pagemove.plan_s": "s",
    "pagemove.execute_s": "s",
    "pagemove.hw_s": "s",
    "pagemove.pages_moved": "count",
    "pagemove.hw_pages": "count",
    "pagemove.hw_clk_per_page": "clk",
    "vm.faults": "count",
    "vm.fault_s": "s",
    "vm.tlb_hit_rate": "ratio",
    "vm.tlb_invalidations": "count",
    "hbm.requests": "count",
    "hbm.enqueue_s": "s",
    "hbm.drain_s": "s",
    "hbm.row_hit_rate": "ratio",
    "hbm.mean_latency_clk": "clk",
    "hbm.migration_commands": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}


class Tracer:
    """Layer spans on a :class:`repro.profiling.profiler.PhaseProfiler`,
    which keeps every name's calls, cumulative and self time, plus capped
    span records for ops and coarse entries, tagged with their op."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = 200_000) -> None:
        # Imported here: the runner reads LAYER_METRICS without the
        # simulator's sources on its path.
        from repro.profiling.profiler import PhaseProfiler

        self.clock = clock
        # Aggregates only: span records are the capped list below, which
        # leaves out hot leaves, so the profiler's event ring holds one.
        self.profiler = PhaseProfiler(clock=clock, events_capacity=1)
        self.counters: Dict[str, float] = defaultdict(float)
        #: [name, start, end, parent, op_id, label]
        self.spans: List[list] = []
        self.span_cap = span_cap
        self.dropped = 0
        #: Per open recorded call, the index of its record, or of the
        #: nearest recorded ancestor when its own record was dropped.
        self.scopes: List[Optional[int]] = []
        #: Set while an op runs; wrapped calls outside an op are plain calls.
        self.op_id: Optional[int] = None
        #: Simulated-state objects whose statistics the layer metrics read.
        self.tlbs: List[Any] = []
        self.controllers: Dict[int, Any] = {}
        self.hbm_systems: Dict[int, Any] = {}

    def open_record(self, name: str, label: str = "") -> Optional[int]:
        scope = self.scopes[-1] if self.scopes else None
        index = None
        if len(self.spans) < self.span_cap:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, scope, self.op_id, label])
            scope = index
        else:
            self.dropped += 1
        self.scopes.append(scope)
        return index

    def close_record(self, index: Optional[int]) -> None:
        self.scopes.pop()
        if index is not None:
            self.spans[index][2] = self.clock()

    def run_op(self, op_id: int, label: str, call: Callable[[], Any]) -> Any:
        """Run one op as the root span."""
        self.op_id = op_id
        self.profiler.begin("op")
        index = self.open_record("op", label)
        try:
            return call()
        finally:
            self.close_record(index)
            self.profiler.end("op")
            self.op_id = None

    def in_span(self, name: str) -> bool:
        """Whether a recorded call named ``name`` is open."""
        return any(index is not None and self.spans[index][0] == name
                   for index in self.scopes)

    def wrap(self, name: str, fn: Callable, record: bool = False,
             after: Optional[Callable[[tuple, dict, Any], None]] = None) -> Callable:
        begin, end = self.profiler.begin, self.profiler.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            # Record keeping runs inside the span, so the op's wall time
            # holds nothing the profiler does not attribute.
            begin(name)
            index = self.open_record(name) if record else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if record:
                    self.close_record(index)
                end(name)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.bench_original = fn
        return traced

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Name -> the profiler's calls, cumulative and self seconds."""
        return {s.name: s for s in self.profiler.flat()}

    def metrics(self) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` entry this tracer can derive (the
        startup and overhead entries come from the pass runner)."""
        stats = self.stats()
        c = self.counters
        m: Dict[str, float] = {}

        def calls(name: str) -> int:
            return stats[name].calls if name in stats else 0

        def total(name: str) -> float:
            return stats[name].cum_seconds if name in stats else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m["exec.run_calls"] = calls("exec.run")
        m["exec.run_s"] = total("exec.run")
        m["exec.job_s"] = c["exec.job_s"]
        m["exec.critical_s"] = c["exec.critical_s"]
        m["exec.overhead_s"] = m["exec.run_s"] - m["exec.critical_s"]

        m["cluster.fleet_run_s"] = total("cluster.fleet_run")
        m["cluster.place_calls"] = calls("cluster.place")
        m["cluster.place_s"] = total("cluster.place")
        m["cluster.place_nodes_scanned"] = c["cluster.place_nodes_scanned"]
        m["cluster.place_fail_frac"] = ratio(c["cluster.place_failed"],
                                             m["cluster.place_calls"])
        m["cluster.shard_s"] = c["cluster.shard_s"]
        fleet = stats.get("cluster.fleet_run")
        m["cluster.coord_self_s"] = fleet.self_seconds if fleet else 0.0
        for key in ("admissions", "departures", "migrations",
                    "waiting_at_horizon"):
            m[f"cluster.{key}"] = c[f"cluster.{key}"]

        m["core.runs"] = calls("core.run")
        m["core.run_s"] = total("core.run")
        m["core.epochs"] = c["core.epochs"]
        m["core.repartitions"] = c["core.repartitions"]
        m["core.us_per_epoch"] = 1e6 * ratio(m["core.run_s"], m["core.epochs"])

        m["policies.epoch_end_calls"] = calls("policies.epoch_end")
        m["policies.epoch_end_s"] = total("policies.epoch_end")
        m["policies.partition_calls"] = calls("policies.partition")
        m["policies.partition_s"] = total("policies.partition")
        m["policies.repartition_ratio"] = ratio(m["core.repartitions"],
                                                m["policies.partition_calls"])

        m["gpu.throughput_calls"] = calls("gpu.throughput")
        m["gpu.throughput_s"] = total("gpu.throughput")
        m["gpu.batch_calls"] = calls("gpu.throughput_batch")
        m["gpu.batch_s"] = total("gpu.throughput_batch")

        m["fastpath.step_calls"] = calls("fastpath.step")
        m["fastpath.step_s"] = total("fastpath.step")
        m["fastpath.batch_s"] = total("fastpath.compute_batch")

        m["pagemove.plan_s"] = total("pagemove.plan")
        m["pagemove.execute_s"] = total("pagemove.execute")
        m["pagemove.hw_s"] = total("pagemove.hw")
        m["pagemove.pages_moved"] = c["pagemove.pages_moved"]
        m["pagemove.hw_pages"] = calls("pagemove.hw")
        m["pagemove.hw_clk_per_page"] = ratio(c["pagemove.hw_clk"],
                                              m["pagemove.hw_pages"])

        m["vm.faults"] = calls("vm.handle_fault")
        m["vm.fault_s"] = total("vm.handle_fault")
        hits = sum(t.stats.hits for t in self.tlbs)
        m["vm.tlb_hit_rate"] = ratio(hits, sum(t.stats.accesses for t in self.tlbs))
        m["vm.tlb_invalidations"] = sum(t.stats.invalidations for t in self.tlbs)

        served = sum(ctl.stats.served for ctl in self.controllers.values())
        m["hbm.requests"] = calls("hbm.enqueue")
        m["hbm.enqueue_s"] = total("hbm.enqueue")
        m["hbm.drain_s"] = total("hbm.drain")
        m["hbm.row_hit_rate"] = ratio(
            sum(ctl.stats.row_hits for ctl in self.controllers.values()), served)
        m["hbm.mean_latency_clk"] = ratio(
            sum(ctl.stats.total_latency for ctl in self.controllers.values()),
            served)
        m["hbm.migration_commands"] = sum(
            s.stats()["migrations_completed"] for s in self.hbm_systems.values())

        # A span name's layer is its first dotted part; the op's own self
        # time is what no layer claims.
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
        for name, entry in stats.items():
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                m[f"{layer}.self_s"] += entry.self_seconds
        m["unattributed_s"] = stats["op"].self_seconds if "op" in stats else 0.0
        return m

    def write(self, out_dir: Path, metrics: Dict[str, float]) -> None:
        """Write ``spans.jsonl`` and ``layers.json`` once, at the end."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, label in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "op_id": op_id}
                if label:
                    record["label"] = label
                fh.write(json.dumps(record) + "\n")
        layers = {
            "metrics": metrics,
            "spans": {s.name: {"calls": s.calls, "total_s": s.cum_seconds,
                               "self_s": s.self_seconds}
                      for s in sorted(self.profiler.flat(), key=lambda s: s.name)},
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped,
        }
        (out_dir / "layers.json").write_text(json.dumps(layers, indent=1))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns a function that undoes it."""
    from repro.cluster import fleet, shard
    from repro.core import partitioner, system
    from repro.exec import executor
    from repro.fastpath import epoch as fast_epoch
    from repro.gpu import performance
    from repro.hbm import controller
    from repro.pagemove import engine
    from repro.policies import CDSearchPolicy, UGPUPolicy
    from repro.vm import driver, tlb

    c = tracer.counters
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner, attr, name, record=False, after=None):
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, record, after))

    def exec_after(args, _kwargs, _result):
        stats = args[0].last_stats
        jobs = stats.job_seconds
        c["exec.job_s"] += sum(jobs)
        # A call's critical path: its longest job, or the per-worker
        # share of all its jobs when there are more jobs than workers.
        if jobs:
            c["exec.critical_s"] += max(max(jobs), sum(jobs) / stats.workers)
        if tracer.in_span("cluster.fleet_run"):
            c["cluster.shard_s"] += sum(jobs)

    def fleet_after(_args, _kwargs, result):
        for key in ("admissions", "departures", "migrations",
                    "waiting_at_horizon"):
            c[f"cluster.{key}"] += getattr(result, key)

    def place_after(args, _kwargs, result):
        c["cluster.place_nodes_scanned"] += len(args[1])
        if result is None:
            c["cluster.place_failed"] += 1

    def core_after(_args, _kwargs, result):
        c["core.epochs"] += len(result.epochs)
        c["core.repartitions"] += result.repartitions

    def execute_after(_args, _kwargs, report):
        c["pagemove.pages_moved"] += report.pages_moved

    def hw_after(args, kwargs, done):
        now = kwargs.get("now", args[4] if len(args) > 4 else 0)
        c["pagemove.hw_clk"] += done - now
        tracer.hbm_systems[id(args[1])] = args[1]

    def enqueue_after(args, _kwargs, _result):
        tracer.controllers[id(args[0])] = args[0]

    def batch_after(_args, _kwargs, _result):
        # repro.fastpath.batch imports numpy, so it is wrapped only once
        # the first batched call has imported it.
        batch = sys.modules.get("repro.fastpath.batch")
        if batch is not None and not hasattr(batch.compute_batch, "bench_original"):
            patch(batch, "compute_batch", "fastpath.compute_batch")

    patch(executor.SweepExecutor, "run", "exec.run", True, exec_after)
    patch(fleet.FleetSimulator, "run", "cluster.fleet_run", True, fleet_after)
    patch(fleet, "choose_node", "cluster.place", True, place_after)
    patch(shard.FleetShardJob, "run", "cluster.shard")
    patch(system.MultitaskSystem, "run", "core.run", True, core_after)
    # Only the policies that define their own boundary hook: wrapping the
    # no-op BPPolicy and MPSPolicy inherit would hide it from the fast
    # path's static-policy test and change how those runs execute.
    patch(UGPUPolicy, "on_epoch_end", "policies.epoch_end")
    patch(CDSearchPolicy, "on_epoch_end", "policies.epoch_end")
    patch(partitioner.DemandAwarePartitioner, "compute", "policies.partition")
    patch(performance.PerformanceModel, "throughput", "gpu.throughput")
    patch(performance.PerformanceModel, "throughput_batch",
          "gpu.throughput_batch", after=batch_after)
    patch(fast_epoch.FastEpochKernel, "drive", "fastpath.drive")
    patch(fast_epoch.FastEpochKernel, "step", "fastpath.step")
    patch(engine.MigrationEngine, "plan_channel_reallocation", "pagemove.plan")
    patch(engine.MigrationEngine, "execute", "pagemove.execute",
          after=execute_after)
    patch(engine.MigrationEngine, "execute_page_on_hardware", "pagemove.hw",
          after=hw_after)
    patch(driver.GPUDriver, "handle_fault", "vm.handle_fault")
    patch(controller.MemoryController, "enqueue", "hbm.enqueue",
          after=enqueue_after)
    patch(controller.MemoryController, "drain", "hbm.drain")

    tlb_init = tlb.TLB.__init__

    @functools.wraps(tlb_init)
    def watched_init(self, *args, **kwargs):
        tlb_init(self, *args, **kwargs)
        tracer.tlbs.append(self)

    undo.append((tlb.TLB, "__init__", tlb_init))
    tlb.TLB.__init__ = watched_init

    # Pool workers inherit the wrappers by fork; with no op running there
    # every wrapper is a pass-through.
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "op_id", None))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall
