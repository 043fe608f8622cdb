"""Derive the canonical metrics from a recorded trace.

:func:`registry_from_trace` is the offline twin of live instrumentation:
given the event stream a :class:`~repro.trace.recorder.TraceRecorder`
captured (or a re-read JSONL file), it rebuilds the same metric families
the instrumented components would have populated in a live run — same
names, same labels, same buckets, because both sides declare through
:mod:`repro.telemetry.names`.  That makes old traces scrapeable
after the fact (``repro metrics --from-trace run.jsonl``) and gives the
test suite an equivalence oracle: live registry == bridged registry on
the same run, modulo live-only point samples (queue depths sampled
mid-run) and ring-buffer drops.

:func:`fold_exec_stats` is the small sibling for the sweep executor,
folding an :class:`~repro.exec.stats.ExecStats` into the registry.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry import names
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.recorder import KIND_SPAN, TraceEvent


def registry_from_trace(
    events: Sequence[TraceEvent],
    dropped_events: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold ``events`` into a (new or provided) metrics registry.

    Derivable families are exact reconstructions of what live
    instrumentation counts; queue-depth gauges are reconstructed from
    conservation (waiting = arrivals - admissions, resident =
    admissions - departures), which matches the live end-of-run sample.
    ``dropped_events`` (from ``TraceRecorder.dropped``) is exported so a
    bridged registry never hides that its input was truncated.
    """
    reg = registry if registry is not None else MetricsRegistry()

    epochs = names.epochs_total(reg)
    epoch_cycles = names.epoch_cycles_total(reg)
    epoch_hist = names.epoch_duration_cycles(reg)
    instructions = names.instructions_total(reg)
    stall = names.migration_stall_cycles_total(reg)
    reallocs = names.reallocations_total(reg)
    qos = names.qos_interventions_total(reg)
    policy_pages = names.migration_pages_total(reg)
    policy_windows = names.migration_window_cycles_total(reg)
    arrivals = names.open_arrivals_total(reg)
    admissions = names.open_admissions_total(reg)
    departures = names.open_departures_total(reg)
    queue_delay = names.open_queueing_delay_cycles(reg)
    faults = names.vm_faults_total(reg)
    fault_cycles = names.vm_fault_software_cycles_total(reg)
    cache_hits = names.exec_cache_hits_total(reg)
    cache_misses = names.exec_cache_misses_total(reg)
    jobs_run = names.exec_jobs_run_total(reg)
    job_seconds = names.exec_job_seconds(reg)

    for event in events:
        category = event.category
        if category == "epoch":
            epochs.inc()
            span = event.duration if event.kind == KIND_SPAN else 0.0
            epoch_cycles.inc(span)
            epoch_hist.observe(span)
            instructions.inc(float(event.args.get("instructions", 0.0)))
            stall.inc(float(event.args.get("migration_cycles", 0.0)))
        elif category == "realloc":
            if event.name in ("apply", "suppress", "membership"):
                reallocs.labels(outcome=event.name).inc()
        elif category == "qos":
            qos.inc()
        elif category == "migration":
            if event.name in ("eager", "rebalance"):
                policy_pages.labels(phase=event.name).inc(
                    float(event.args.get("pages", 0.0))
                )
                policy_windows.labels(phase=event.name).inc(event.duration)
        elif category == "fault":
            faults.labels(kind=event.name).inc()
            fault_cycles.inc(float(event.args.get("software_cycles", 0.0)))
        elif category == "arrival":
            arrivals.inc()
        elif category == "admission":
            admissions.inc()
            delay = event.args.get("queueing_delay")
            if delay is not None:
                queue_delay.observe(float(delay))
        elif category == "departure":
            departures.inc()
        elif category == "cache":
            if event.name == "hit":
                cache_hits.inc()
            elif event.name == "miss":
                cache_misses.inc()
        elif category == "job":
            jobs_run.inc()
            job_seconds.observe(event.duration)

    # Depth gauges by conservation: equal to the live end-of-run sample.
    names.open_wait_queue_depth(reg).set(
        max(0.0, arrivals.value - admissions.value)
    )
    names.open_resident_jobs(reg).set(
        max(0.0, admissions.value - departures.value)
    )
    names.trace_dropped_events(reg).set(dropped_events)
    return reg


def fold_exec_stats(registry: MetricsRegistry, stats) -> MetricsRegistry:
    """Fold one :class:`~repro.exec.stats.ExecStats` into ``registry``."""
    names.exec_jobs_total(registry).inc(stats.jobs_total)
    names.exec_jobs_run_total(registry).inc(stats.jobs_run)
    names.exec_cache_hits_total(registry).inc(stats.cache_hits)
    names.exec_cache_misses_total(registry).inc(
        max(0, stats.jobs_total - stats.cache_hits)
    )
    names.exec_cache_evictions_total(registry).inc(stats.cache_evictions)
    names.exec_cache_schema_evictions_total(registry).inc(
        getattr(stats, "cache_schema_evictions", 0)
    )
    names.exec_wall_seconds_total(registry).inc(stats.wall_seconds)
    job_hist = names.exec_job_seconds(registry)
    for seconds in stats.job_seconds:
        job_hist.observe(seconds)
    return registry
