"""The canonical metric families: name, help text, labels and buckets.

Most families are derived from events: :mod:`repro.telemetry.bridge`
folds each event into them, for a live run and for a recorded trace
alike, and is the only module that names them.  The rest count facts no
event carries, and their component declares them through its handle
(``obs.metric(names.policy_stp)``): STP/ANTT, the throughput memo, the
HBM controller, MIGRATION commands, fleet energy, the health gauges,
the executor's requested jobs, evictions and wall time, and trace drops.

Registry construction is idempotent, so any number of components may
call the same factory; mismatched redeclarations raise ``ConfigError``.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    CYCLE_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
)

# ---------------------------------------------------------------------- epoch
EPOCHS_TOTAL = "repro_epochs_total"
EPOCH_CYCLES_TOTAL = "repro_epoch_cycles_total"
EPOCH_DURATION_CYCLES = "repro_epoch_duration_cycles"
INSTRUCTIONS_TOTAL = "repro_instructions_total"
MIGRATION_STALL_CYCLES_TOTAL = "repro_migration_stall_cycles_total"


def epochs_total(reg: MetricsRegistry):
    return reg.counter(EPOCHS_TOTAL, "Simulated epochs completed.")


def epoch_cycles_total(reg: MetricsRegistry):
    return reg.counter(EPOCH_CYCLES_TOTAL, "Simulated cycles covered by epochs.")


def epoch_duration_cycles(reg: MetricsRegistry):
    return reg.histogram(
        EPOCH_DURATION_CYCLES,
        "Per-epoch span in cycles (includes reallocation stretch).",
        buckets=CYCLE_BUCKETS,
    )


def instructions_total(reg: MetricsRegistry):
    return reg.counter(INSTRUCTIONS_TOTAL, "Instructions retired across apps.")


def migration_stall_cycles_total(reg: MetricsRegistry):
    return reg.counter(
        MIGRATION_STALL_CYCLES_TOTAL,
        "Epoch cycles consumed by reallocation/migration windows.",
    )


# --------------------------------------------------------------------- policy
REALLOCATIONS_TOTAL = "repro_reallocations_total"
QOS_INTERVENTIONS_TOTAL = "repro_qos_interventions_total"
MIGRATION_PAGES_TOTAL = "repro_migration_pages_total"
MIGRATION_WINDOW_CYCLES_TOTAL = "repro_migration_window_cycles_total"
POLICY_STP = "repro_policy_stp"
POLICY_ANTT = "repro_policy_antt"


def reallocations_total(reg: MetricsRegistry):
    return reg.counter(
        REALLOCATIONS_TOTAL,
        "Partition decisions by outcome "
        "(apply, suppress = hysteresis-suppressed, membership).",
        labels=("outcome",),
    )


def qos_interventions_total(reg: MetricsRegistry):
    return reg.counter(
        QOS_INTERVENTIONS_TOTAL, "QoS enforcement interventions (Figure 16)."
    )


def migration_pages_total(reg: MetricsRegistry):
    return reg.counter(
        MIGRATION_PAGES_TOTAL,
        "Pages charged to policy migration windows by phase "
        "(eager = lost-channel drain, rebalance = gained-channel fill).",
        labels=("phase",),
    )


def migration_window_cycles_total(reg: MetricsRegistry):
    return reg.counter(
        MIGRATION_WINDOW_CYCLES_TOTAL,
        "Cycles inside policy migration windows by phase.",
        labels=("phase",),
    )


def policy_stp(reg: MetricsRegistry):
    return reg.gauge(
        POLICY_STP, "System throughput (sum of normalized progress).",
        labels=("policy",),
    )


def policy_antt(reg: MetricsRegistry):
    return reg.gauge(
        POLICY_ANTT, "Average normalized turnaround time.", labels=("policy",),
    )


# ---------------------------------------------------------------- open system
OPEN_ARRIVALS_TOTAL = "repro_open_arrivals_total"
OPEN_ADMISSIONS_TOTAL = "repro_open_admissions_total"
OPEN_DEPARTURES_TOTAL = "repro_open_departures_total"
OPEN_QUEUEING_DELAY_CYCLES = "repro_open_queueing_delay_cycles"
OPEN_WAIT_QUEUE_DEPTH = "repro_open_wait_queue_depth"
OPEN_RESIDENT_JOBS = "repro_open_resident_jobs"


def open_arrivals_total(reg: MetricsRegistry):
    return reg.counter(OPEN_ARRIVALS_TOTAL, "Jobs that entered the wait queue.")


def open_admissions_total(reg: MetricsRegistry):
    return reg.counter(OPEN_ADMISSIONS_TOTAL, "Jobs admitted to a slice.")


def open_departures_total(reg: MetricsRegistry):
    return reg.counter(OPEN_DEPARTURES_TOTAL, "Jobs that retired their budget.")


def open_queueing_delay_cycles(reg: MetricsRegistry):
    return reg.histogram(
        OPEN_QUEUEING_DELAY_CYCLES,
        "Cycles between arrival and admission.",
        buckets=CYCLE_BUCKETS,
    )


def open_wait_queue_depth(reg: MetricsRegistry):
    return reg.gauge(
        OPEN_WAIT_QUEUE_DEPTH, "Jobs waiting for a slice (sampled at boundaries)."
    )


def open_resident_jobs(reg: MetricsRegistry):
    return reg.gauge(
        OPEN_RESIDENT_JOBS, "Jobs resident on the GPU (sampled at boundaries)."
    )


# ------------------------------------------------------------------ vm driver
VM_FAULTS_TOTAL = "repro_vm_faults_total"
VM_FAULT_SOFTWARE_CYCLES_TOTAL = "repro_vm_fault_software_cycles_total"


def vm_faults_total(reg: MetricsRegistry):
    return reg.counter(
        VM_FAULTS_TOTAL,
        "Driver faults by kind (demand / lost-channel / rebalance).",
        labels=("kind",),
    )


def vm_fault_software_cycles_total(reg: MetricsRegistry):
    return reg.counter(
        VM_FAULT_SOFTWARE_CYCLES_TOTAL,
        "Software fault-handling cycles charged by the driver.",
    )


# ------------------------------------------------------------ pagemove engine
PAGEMOVE_PAGES_TOTAL = "repro_pagemove_pages_total"
PAGEMOVE_COMMANDS_TOTAL = "repro_pagemove_commands_total"
PAGEMOVE_WINDOW_CYCLES_TOTAL = "repro_pagemove_window_cycles_total"


def pagemove_pages_total(reg: MetricsRegistry):
    return reg.counter(
        PAGEMOVE_PAGES_TOTAL,
        "Pages moved by the migration engine by plan kind (eager / lazy).",
        labels=("kind",),
    )


def pagemove_commands_total(reg: MetricsRegistry):
    return reg.counter(
        PAGEMOVE_COMMANDS_TOTAL,
        "MIGRATION commands issued to HBM controllers.",
    )


def pagemove_window_cycles_total(reg: MetricsRegistry):
    return reg.counter(
        PAGEMOVE_WINDOW_CYCLES_TOTAL,
        "Cycles inside executed migration windows.",
    )


# ------------------------------------------------------------------------ hbm
HBM_REQUESTS_TOTAL = "repro_hbm_requests_total"
HBM_ROW_OUTCOMES_TOTAL = "repro_hbm_row_outcomes_total"
HBM_BANDWIDTH_UTILIZATION = "repro_hbm_bandwidth_utilization"


def hbm_requests_total(reg: MetricsRegistry):
    return reg.counter(
        HBM_REQUESTS_TOTAL,
        "Commands serviced per channel by request kind.",
        labels=("channel", "kind"),
    )


def hbm_row_outcomes_total(reg: MetricsRegistry):
    return reg.counter(
        HBM_ROW_OUTCOMES_TOTAL,
        "Row-buffer outcomes per channel (hit / miss / conflict).",
        labels=("channel", "outcome"),
    )


def hbm_bandwidth_utilization(reg: MetricsRegistry):
    return reg.gauge(
        HBM_BANDWIDTH_UTILIZATION,
        "Achieved / peak channel bandwidth after the last drain.",
        labels=("channel",),
    )


# ---------------------------------------------------------------------- fleet
FLEET_ROUNDS_TOTAL = "repro_fleet_rounds_total"
FLEET_JOBS_TOTAL = "repro_fleet_jobs_total"
FLEET_WAIT_QUEUE_DEPTH = "repro_fleet_wait_queue_depth"
FLEET_RESIDENT_JOBS = "repro_fleet_resident_jobs"
FLEET_ACTIVE_NODES = "repro_fleet_active_nodes"
FLEET_FRAGMENTATION = "repro_fleet_fragmentation"
FLEET_QUEUEING_DELAY_CYCLES = "repro_fleet_queueing_delay_cycles"
FLEET_ENERGY_JOULES_TOTAL = "repro_fleet_energy_joules_total"


def fleet_rounds_total(reg: MetricsRegistry):
    return reg.counter(
        FLEET_ROUNDS_TOTAL, "Fleet scheduling rounds completed."
    )


def fleet_jobs_total(reg: MetricsRegistry):
    return reg.counter(
        FLEET_JOBS_TOTAL,
        "Fleet job lifecycle events "
        "(arrived / admitted / departed / migrated).",
        labels=("event",),
    )


def fleet_wait_queue_depth(reg: MetricsRegistry):
    return reg.gauge(
        FLEET_WAIT_QUEUE_DEPTH,
        "Jobs waiting for a node slot (sampled at round boundaries).",
    )


def fleet_resident_jobs(reg: MetricsRegistry):
    return reg.gauge(
        FLEET_RESIDENT_JOBS,
        "Jobs resident across the fleet (sampled at round boundaries).",
    )


def fleet_active_nodes(reg: MetricsRegistry):
    return reg.gauge(
        FLEET_ACTIVE_NODES,
        "Nodes with at least one tenant (sampled at round boundaries).",
    )


def fleet_fragmentation(reg: MetricsRegistry):
    return reg.gauge(
        FLEET_FRAGMENTATION,
        "Stranded capacity: free slots on active nodes / fleet capacity.",
    )


def fleet_queueing_delay_cycles(reg: MetricsRegistry):
    return reg.histogram(
        FLEET_QUEUEING_DELAY_CYCLES,
        "Cycles between a fleet job's arrival and its admission.",
        buckets=CYCLE_BUCKETS,
    )


def fleet_energy_joules_total(reg: MetricsRegistry):
    return reg.counter(
        FLEET_ENERGY_JOULES_TOTAL,
        "Fleet energy by component (core_static / core_dynamic / "
        "mem_static / mem_dynamic / migration).",
        labels=("component",),
    )


# ----------------------------------------------------------------------- exec
EXEC_JOBS_RUN_TOTAL = "repro_exec_jobs_run_total"
EXEC_JOB_SECONDS = "repro_exec_job_seconds"
EXEC_WALL_SECONDS_TOTAL = "repro_exec_wall_seconds_total"


def exec_jobs_run_total(reg: MetricsRegistry):
    return reg.counter(EXEC_JOBS_RUN_TOTAL, "Sweep jobs executed.")


def exec_job_seconds(reg: MetricsRegistry):
    return reg.histogram(
        EXEC_JOB_SECONDS, "In-worker seconds per executed job.",
        buckets=SECONDS_BUCKETS,
    )


def exec_wall_seconds_total(reg: MetricsRegistry):
    return reg.counter(EXEC_WALL_SECONDS_TOTAL, "End-to-end sweep wall seconds.")


# --------------------------------------------------------------------- worker
# Families captured *inside* pool workers by FleetShardJob.run and merged
# orchestrator-side (exact counter sums, deterministic in job order).
WORKER_NODE_ROUNDS_TOTAL = "repro_worker_node_rounds_total"
WORKER_TENANT_ROUNDS_TOTAL = "repro_worker_tenant_rounds_total"
WORKER_INSTRUCTIONS_TOTAL = "repro_worker_instructions_total"
WORKER_DRAM_BYTES_TOTAL = "repro_worker_dram_bytes_total"
WORKER_DEPARTURES_TOTAL = "repro_worker_departures_total"
WORKER_ACTIVE_CYCLES_TOTAL = "repro_worker_active_cycles_total"


def worker_node_rounds_total(reg: MetricsRegistry):
    return reg.counter(
        WORKER_NODE_ROUNDS_TOTAL,
        "Node-rounds simulated inside pool workers.",
    )


def worker_tenant_rounds_total(reg: MetricsRegistry):
    return reg.counter(
        WORKER_TENANT_ROUNDS_TOTAL,
        "Tenant-rounds simulated inside pool workers, by benchmark.",
        labels=("benchmark",),
    )


def worker_instructions_total(reg: MetricsRegistry):
    return reg.counter(
        WORKER_INSTRUCTIONS_TOTAL,
        "Instructions retired by worker-side node physics.",
    )


def worker_dram_bytes_total(reg: MetricsRegistry):
    return reg.counter(
        WORKER_DRAM_BYTES_TOTAL,
        "DRAM traffic accounted by worker-side node physics.",
    )


def worker_departures_total(reg: MetricsRegistry):
    return reg.counter(
        WORKER_DEPARTURES_TOTAL,
        "Tenants that retired their budget inside a worker round.",
    )


def worker_active_cycles_total(reg: MetricsRegistry):
    return reg.counter(
        WORKER_ACTIVE_CYCLES_TOTAL,
        "Tenant-active cycles accumulated inside worker rounds.",
    )


# --------------------------------------------------------------------- health
HEALTH_INCIDENTS_TOTAL = "repro_health_incidents_total"
HEALTH_STRAGGLER_RATIO = "repro_health_straggler_ratio"
HEALTH_WAIT_STALL_ROUNDS = "repro_health_wait_stall_rounds"


def health_incidents_total(reg: MetricsRegistry):
    return reg.counter(
        HEALTH_INCIDENTS_TOTAL,
        "Fleet health incidents by kind (straggler / wait_stall).",
        labels=("kind",),
    )


def health_straggler_ratio(reg: MetricsRegistry):
    return reg.gauge(
        HEALTH_STRAGGLER_RATIO,
        "Worst worker wall-time / round median (sampled per round).",
    )


def health_wait_stall_rounds(reg: MetricsRegistry):
    return reg.gauge(
        HEALTH_WAIT_STALL_ROUNDS,
        "Consecutive rounds of monotonically rising wait-queue depth.",
    )


# ------------------------------------------------------------ perf-model memo
PERF_MEMO_LOOKUPS_TOTAL = "repro_perf_memo_lookups_total"
PERF_MEMO_ENTRIES = "repro_perf_memo_entries"


def perf_memo_lookups_total(reg: MetricsRegistry):
    return reg.counter(
        PERF_MEMO_LOOKUPS_TOTAL,
        "Throughput-memo lookups by outcome (hit / miss).",
        labels=("outcome",),
    )


def perf_memo_entries(reg: MetricsRegistry):
    return reg.gauge(
        PERF_MEMO_ENTRIES,
        "Entries held by the LRU-bounded throughput memo.",
    )


# ---------------------------------------------------------------------- trace
TRACE_DROPPED_EVENTS = "repro_trace_dropped_events"


def trace_dropped_events(reg: MetricsRegistry):
    return reg.gauge(
        TRACE_DROPPED_EVENTS,
        "Events evicted from the trace ring buffer (truncation is not silent).",
    )
