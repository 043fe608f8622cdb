"""Derive metrics from events: one fold for live runs and recorded traces.

Every instrumented fact is one event (``obs.emit``).  When the
:class:`~repro.obs.Obs` handle holds a metrics registry, each event it
emits goes through :func:`fold_event`, which updates the families the
event carries; :func:`registry_from_trace` loops the same function over
a recorded trace (``repro metrics run.jsonl``).  A live registry and
one derived from the run's trace therefore agree on every sample an
event carries, by construction.  Worker events reach the orchestrator's
trace through :meth:`~repro.obs.Obs.absorb` without being folded again:
their metrics arrive with the worker's registry snapshot.

:data:`DERIVED` maps each event category to the families its events
fold into.  :func:`declare` creates a category's families at zero; each
emitter declares its categories when it is built
(:meth:`~repro.obs.Obs.declare`), so a family exports from the first
sample on, before its first event.  A family that no event touched
exports from a live run only.

:func:`fold_exec_stats` counts the sweep executor's facts, which no
event carries because they are wall seconds and a trace keeps one
clock: jobs run, each job's seconds and the run's wall seconds.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.telemetry import names
from repro.telemetry.merge import merge_registry, snapshot_registry
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.recorder import TraceEvent

#: The metric families each event category folds into.
DERIVED = {
    "epoch": (names.epochs_total, names.epoch_cycles_total,
              names.epoch_duration_cycles, names.instructions_total,
              names.migration_stall_cycles_total,
              names.open_wait_queue_depth, names.open_resident_jobs),
    "arrival": (names.open_arrivals_total,),
    "admission": (names.open_admissions_total,
                  names.open_queueing_delay_cycles),
    "departure": (names.open_departures_total,),
    "realloc": (names.reallocations_total,),
    "qos": (names.qos_interventions_total,),
    "migration": (names.migration_pages_total,
                  names.migration_window_cycles_total,
                  names.pagemove_pages_total,
                  names.pagemove_window_cycles_total),
    "fault": (names.vm_faults_total, names.vm_fault_software_cycles_total),
    "fleet": (names.fleet_rounds_total, names.fleet_jobs_total,
              names.fleet_wait_queue_depth, names.fleet_resident_jobs,
              names.fleet_active_nodes, names.fleet_fragmentation,
              names.fleet_queueing_delay_cycles),
    "node": (names.worker_node_rounds_total,
             names.worker_tenant_rounds_total,
             names.worker_instructions_total, names.worker_dram_bytes_total,
             names.worker_departures_total,
             names.worker_active_cycles_total),
    "health": (names.health_incidents_total,),
}

#: Fleet lifecycle event name -> ``repro_fleet_jobs_total`` label.
_FLEET_JOB_LABELS = {
    "arrive": "arrived",
    "admit": "admitted",
    "depart": "departed",
    "migrate": "migrated",
}


def declare(registry: MetricsRegistry, *categories: str) -> None:
    """Create the families ``categories``' events fold into, at zero."""
    for category in categories:
        for family in DERIVED[category]:
            family(registry)


def fold_event(registry: MetricsRegistry, category: str, name: str,
               duration: float, args: Mapping[str, Any]) -> None:
    """Update the metric families one event carries."""
    if category == "epoch":
        names.epochs_total(registry).inc()
        names.epoch_cycles_total(registry).inc(duration)
        names.epoch_duration_cycles(registry).observe(duration)
        names.instructions_total(registry).inc(args.get("instructions", 0))
        names.migration_stall_cycles_total(registry).inc(
            args.get("migration_cycles", 0))
        # Open runs stamp the queue state after the boundary's lifecycle.
        if "wait" in args:
            names.open_wait_queue_depth(registry).set(args["wait"])
            names.open_resident_jobs(registry).set(args["resident"])
    elif category == "arrival":
        names.open_arrivals_total(registry).inc()
    elif category == "admission":
        names.open_admissions_total(registry).inc()
        names.open_queueing_delay_cycles(registry).observe(
            args["queueing_delay"])
    elif category == "departure":
        names.open_departures_total(registry).inc()
    elif category == "realloc":
        if name in ("apply", "suppress", "membership"):
            names.reallocations_total(registry).labels(outcome=name).inc()
    elif category == "qos":
        names.qos_interventions_total(registry).inc()
    elif category == "migration":
        if name in ("eager", "rebalance"):
            names.migration_pages_total(registry).labels(phase=name).inc(
                args.get("pages", 0))
            names.migration_window_cycles_total(registry).labels(
                phase=name).inc(duration)
        elif name == "execute":
            pages = names.pagemove_pages_total(registry)
            pages.labels(kind="eager").inc(args.get("eager", 0))
            pages.labels(kind="lazy").inc(args.get("lazy", 0))
            names.pagemove_window_cycles_total(registry).inc(duration)
    elif category == "fault":
        names.vm_faults_total(registry).labels(kind=name).inc()
        names.vm_fault_software_cycles_total(registry).inc(
            args.get("software_cycles", 0))
    elif category == "fleet":
        if name == "round":
            names.fleet_rounds_total(registry).inc()
            names.fleet_wait_queue_depth(registry).set(args["wait"])
            names.fleet_resident_jobs(registry).set(args["resident"])
            names.fleet_active_nodes(registry).set(args["active"])
            names.fleet_fragmentation(registry).set(args["fragmentation"])
        elif name in _FLEET_JOB_LABELS:
            names.fleet_jobs_total(registry).labels(
                event=_FLEET_JOB_LABELS[name]).inc()
            if name == "admit":
                names.fleet_queueing_delay_cycles(registry).observe(
                    args["delay"])
    elif category == "node":
        if "benchmark" in args:   # a tenant's span inside its node's
            names.worker_tenant_rounds_total(registry).labels(
                benchmark=args["benchmark"]).inc()
            names.worker_active_cycles_total(registry).inc(duration)
            names.worker_departures_total(registry).inc(
                1 if args.get("departed") else 0)
        else:
            names.worker_node_rounds_total(registry).inc()
            names.worker_instructions_total(registry).inc(
                args.get("instructions", 0))
            names.worker_dram_bytes_total(registry).inc(
                args.get("dram_bytes", 0))
    elif category == "health":
        names.health_incidents_total(registry).labels(kind=name).inc()


def registry_from_trace(events: Sequence[TraceEvent],
                        dropped_events: int = 0) -> MetricsRegistry:
    """Fold ``events`` into a new metrics registry.

    Every sample an event carries comes out as the live run exported
    it.  Events absorbed from one worker job (a run of events stamped
    with one ``shard_id``) fold into a registry of their own, which then
    merges in, as the live orchestrator merges that worker's snapshot:
    float sums group the same way and agree to the last bit.
    ``dropped_events`` (the recorder's ``dropped``) is exported as
    ``repro_trace_dropped_events``, so a registry derived from a
    truncated ring says so.
    """
    reg = MetricsRegistry()
    shard = worker = None
    for event in events:
        shard_id = event.args.get("shard_id")
        if shard_id != shard:
            if worker is not None:
                merge_registry(reg, snapshot_registry(worker))
            shard = shard_id
            worker = None if shard_id is None else MetricsRegistry()
        try:
            fold_event(reg if worker is None else worker, event.category,
                       event.name, event.duration, event.args)
        except KeyError as exc:
            raise ConfigError(
                f"trace event {event.seq} ({event.category} {event.name!r}) "
                f"lacks {exc.args[0]!r}, which its metrics derive from; "
                "was the trace recorded by an older version?"
            ) from None
    if worker is not None:
        merge_registry(reg, snapshot_registry(worker))
    names.trace_dropped_events(reg).set(dropped_events)
    return reg


def fold_exec_stats(registry: MetricsRegistry, stats) -> MetricsRegistry:
    """Count one executor run's :class:`~repro.exec.stats.ExecStats`:
    its jobs, each job's seconds in job order, then its wall seconds."""
    names.exec_jobs_run_total(registry).inc(stats.jobs_total)
    job_seconds = names.exec_job_seconds(registry)
    for seconds in stats.job_seconds:
        job_seconds.observe(seconds)
    names.exec_wall_seconds_total(registry).inc(stats.wall_seconds)
    return registry
