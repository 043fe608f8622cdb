"""Fleet shard jobs: node-round execution as pure, picklable work units.

The fleet simulator advances hundreds of nodes in fixed scheduling
rounds.  Within a round nodes are independent — each executes only its
own tenants — so the coordinator partitions the active nodes into
*shards* and runs them through the :class:`~repro.exec.SweepExecutor`
exactly like sweep jobs.  Because the physics of one node never depends
on which shard it landed in, a sharded round is byte-identical to the
serial one; because a :class:`FleetShardJob` is a pure function of its
spec (plain integers and strings, no live objects), it is content-
addressable and the executor's :class:`~repro.exec.cache.ResultCache`
can memoize whole shards across rounds and runs.

Shards ship plain rows.  Everything per node and per tenant crosses the
process boundary as a tuple of ints, floats, strings, bools and None:

* tenant row: ``(job_id, abbr, kernel_index, kernel_instructions_done,
  remaining_budget, penalty_factor)`` — ``remaining_budget`` is None for
  a resident job; ``penalty_factor`` scales the round's IPC (below 1.0
  for the round after a migration);
* node row: ``(node_id, tenant_rows)``, tenants in placement order;
* tenant outcome row: ``(job_id, retired, dram_bytes, kernel_index,
  kernel_instructions_done, remaining_budget, departed,
  active_cycles)`` — the cursor after the round; a departing job has
  ``remaining_budget`` 0 and ``active_cycles`` up to its last
  instruction;
* node outcome row: ``(node_id, outcome_rows)``, in tenant order.

``instructions_per_kernel`` is one :class:`FleetShardJob` field, since
a fleet has one.  Rows are plain tuples because pickling cost is per
object: for one 175-node round (700 tenants) on a 2-vCPU VM, frozen
dataclasses per tenant and per node took 1.65 ms to pickle and 1.41 ms
to unpickle, ``typing.NamedTuple`` rows 1.87 ms and 0.77 ms, and plain
tuples 0.21 ms and 0.16 ms.  The worker checks each tenant row before
that row's physics (:func:`_restore`); a bad row raises
:class:`~repro.errors.ConfigError` naming the job and the node.

Worker-side state is rebuilt, never shipped: applications come from the
Table 2 catalog via a per-process memo keyed by
``(abbr, instructions_per_kernel)`` and the execution cursor is restored
from the tenant row.

Per round each tenant runs on a slice of its node:

* ``slicing="mig"`` — rigid even split (``num_sms // n`` SMs and
  ``num_channels // n`` channels each; the remainder stays dark, which
  is exactly MIG's fixed-granularity waste).
* ``slicing="ugpu"`` — unbalanced split: channels are apportioned by
  each tenant's bandwidth demand-supply ratio at the even split
  (Equation 1/2) and SMs inversely, largest-remainder rounded onto the
  4-SM / 4-channel slice floors — the paper's unbalanced-slice
  construction at cluster granularity.

The slice IPC comes from the shared scalar oracle
(:meth:`~repro.gpu.performance.PerformanceModel.throughput`), so fleet
results are identical under both kernel backends by construction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.errors import ConfigError
from repro.exec.jobs import fingerprint
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Application, Kernel
from repro.gpu.performance import PerformanceModel
from repro.workloads.benchmarks import build_application

#: Valid ``slicing`` modes (see module docstring).
SLICING_MODES = ("ugpu", "mig")

#: Minimum slice per tenant — the partition floors the paper's slicing
#: policies enforce (4 SMs / 4 channels).
SM_FLOOR = 4
CHANNEL_FLOOR = 4


#: Wire rows (layouts in the module docstring).
TenantRow = Tuple[int, str, int, int, Optional[int], float]
NodeRow = Tuple[int, Tuple[TenantRow, ...]]
OutcomeRow = Tuple[int, int, float, int, int, Optional[int], bool, int]
NodeOutcomeRow = Tuple[int, Tuple[OutcomeRow, ...]]


@dataclass(frozen=True)
class FleetShardResult:
    """Outcome of one shard: node outcome rows in shard order.

    A class rather than a row because a typed
    :class:`~repro.exec.cache.ResultCache` tells fleet entries from
    sweep entries by it.
    """

    nodes: Tuple[NodeOutcomeRow, ...]


def node_totals(rows: Sequence[OutcomeRow]) -> Tuple[int, float]:
    """A node's retired instructions and DRAM bytes, summed in tenant
    order (the order the energy ledger adds them in)."""
    return sum(row[1] for row in rows), sum(row[2] for row in rows)


# ----------------------------------------------------------------------
# Worker-side memos (pure caches keyed by content, safe per process)
# ----------------------------------------------------------------------
_MODELS: Dict[str, PerformanceModel] = {}


def _model_for(config: GPUConfig) -> PerformanceModel:
    key = fingerprint(config)
    model = _MODELS.get(key)
    if model is None:
        model = PerformanceModel(config)
        _MODELS[key] = model
    return model


def _reject(job_id: int, node_id: int, problem: str) -> ConfigError:
    return ConfigError(f"job {job_id} on node {node_id}: {problem}")


def _restore(row: TenantRow, instructions_per_kernel: int,
             node_id: int) -> Application:
    """Check one tenant row and rebuild its Application at the row's
    cursor; a bad row raises :class:`ConfigError` naming job and node."""
    job_id, abbr, kernel_index, done, remaining, penalty = row
    if instructions_per_kernel <= 0:
        raise _reject(job_id, node_id,
                      "instructions_per_kernel must be positive")
    if kernel_index < 0 or done < 0:
        raise _reject(job_id, node_id, "tenant progress cursors must be >= 0")
    if remaining is not None and remaining <= 0:
        raise _reject(job_id, node_id,
                      "remaining_budget must be positive or None")
    if not 0.0 <= penalty <= 1.0:
        raise _reject(job_id, node_id, "penalty_factor must be in [0, 1]")
    app = build_application(
        abbr, app_id=job_id, instructions_per_kernel=instructions_per_kernel
    )
    kernels = app.kernels
    if kernel_index >= len(kernels):
        raise _reject(
            job_id, node_id,
            f"kernel_index {kernel_index} out of range for {abbr} "
            f"({len(kernels)} kernels)",
        )
    if done >= kernels[kernel_index].instructions:
        raise _reject(
            job_id, node_id,
            f"kernel_instructions_done {done} is past the end of kernel "
            f"{kernel_index} ({kernels[kernel_index].instructions} "
            "instructions)",
        )
    app.progress.kernel_index = kernel_index
    app.progress.instructions_done = done
    return app


# ----------------------------------------------------------------------
# Slicing
# ----------------------------------------------------------------------
def apportion(total: int, weights: Sequence[float], floor: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` units over
    ``weights`` with a per-share ``floor``.  Deterministic: remainder
    ties break to the lowest index."""
    n = len(weights)
    if n == 0:
        return []
    if total < floor * n:
        raise ConfigError(
            f"cannot apportion {total} units over {n} shares at floor {floor}"
        )
    spare = total - floor * n
    weight_sum = sum(weights)
    if weight_sum <= 0:
        weights = [1.0] * n
        weight_sum = float(n)
    quotas = [spare * w / weight_sum for w in weights]
    shares = [int(q) for q in quotas]
    leftover = spare - sum(shares)
    order = sorted(range(n), key=lambda i: (-(quotas[i] - shares[i]), i))
    for i in order[:leftover]:
        shares[i] += 1
    return [floor + s for s in shares]


def slice_node(model: PerformanceModel, config: GPUConfig,
               kernels: Sequence[Kernel],
               slicing: str) -> List[Tuple[int, int]]:
    """Per-tenant ``(sms, channels)`` slices for one round.

    A single tenant always gets the whole GPU.  ``mig`` carves rigid
    even slices and leaves the remainder dark; ``ugpu`` apportions
    channels by bandwidth demand (and SMs inversely) so complementary
    tenants trade the resources they cannot use.
    """
    n = len(kernels)
    if n == 1:
        return [(config.num_sms, config.num_channels)]
    if slicing == "mig":
        sms = config.num_sms // n
        channels = config.num_channels // n
        if sms < SM_FLOOR or channels < CHANNEL_FLOOR:
            raise ConfigError(
                f"{n} tenants break the {SM_FLOOR}-SM/{CHANNEL_FLOOR}-channel "
                "slice floors"
            )
        return [(sms, channels)] * n
    # ugpu: demand-supply ratio at the even split classifies each tenant
    # (the same Equation 1/2 boundary the profiler uses); clamp so one
    # pathological kernel cannot starve the rest.
    even_sms = max(SM_FLOOR, config.num_sms // n)
    even_channels = max(CHANNEL_FLOOR, config.num_channels // n)
    demand = [
        min(4.0, max(0.25, model.throughput(
            k, even_sms, even_channels).demand_supply_ratio))
        for k in kernels
    ]
    channels = apportion(config.num_channels, demand, CHANNEL_FLOOR)
    sms = apportion(config.num_sms, [1.0 / d for d in demand], SM_FLOOR)
    return list(zip(sms, channels))


# ----------------------------------------------------------------------
# The shard job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetShardJob:
    """One round of execution for a shard of nodes, ready to ship.

    ``nodes`` holds one node row per node (layouts in the module
    docstring).  The cache key covers only what determines the physics
    — slicing mode, round span, kernel size, GPU config and the node
    rows — so identical node states hit the cache across rounds and
    runs.  ``label`` is a display string for trace/stats output and is
    excluded from the key.
    """

    nodes: Tuple[NodeRow, ...]
    round_cycles: int
    instructions_per_kernel: int
    slicing: str = "ugpu"
    config: GPUConfig = field(default_factory=GPUConfig)
    label: str = "fleet"
    #: Executor-facing kwargs slot (kept empty; present so the executor's
    #: backend bookkeeping treats shard jobs like sweep jobs).
    kwargs: Tuple = ()

    #: Display attributes the executor's trace/stats plumbing reads.
    policy = "fleet-shard"

    def __post_init__(self) -> None:
        if self.round_cycles <= 0:
            raise ConfigError("round_cycles must be positive")
        if self.slicing not in SLICING_MODES:
            raise ConfigError(
                f"unknown slicing {self.slicing!r}; options: "
                f"{', '.join(SLICING_MODES)}"
            )
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def mix_name(self) -> str:
        return self.label

    @property
    def total_cycles(self) -> int:
        return self.round_cycles

    def spec(self) -> str:
        """Canonical text the cache key hashes (version-qualified)."""
        return (
            f"repro=={__version__};fleet-shard;slicing={self.slicing};"
            f"cycles={self.round_cycles};ipk={self.instructions_per_kernel};"
            f"config={fingerprint(self.config)};"
            f"nodes={fingerprint(self.nodes)}"
        )

    def key(self) -> str:
        return hashlib.sha256(self.spec().encode("utf-8")).hexdigest()

    def run(self) -> FleetShardResult:
        """Execute every node in the shard (worker-side entry point)."""
        model = _model_for(self.config)
        return FleetShardResult(nodes=tuple(
            _run_node(self, model, node) for node in self.nodes
        ))

    def run_observed(self, tracer=None, metrics=None,
                     profiler=None) -> FleetShardResult:
        """:meth:`run` with worker-side observability around each node.

        The physics path is untouched — :func:`_run_node` stays pure;
        instrumentation wraps it.  Trace timestamps are *round-relative*
        cycles (node spans start at 0); the orchestrator re-anchors them
        at the round's start cycle when it absorbs the envelope.  Event
        and metric content depends only on the node/tenant structure,
        never on worker identity or wall time, so serial and sharded
        runs produce identical merged aggregates.
        """
        model = _model_for(self.config)
        if metrics is not None:
            from repro.telemetry import names as _names

            m_node_rounds = _names.worker_node_rounds_total(metrics)
            m_tenant_rounds = _names.worker_tenant_rounds_total(metrics)
            m_instructions = _names.worker_instructions_total(metrics)
            m_dram = _names.worker_dram_bytes_total(metrics)
            m_departures = _names.worker_departures_total(metrics)
            m_active = _names.worker_active_cycles_total(metrics)
        outcomes = []
        span = float(self.round_cycles)
        for node in self.nodes:
            if profiler is not None:
                profiler.begin("worker.node")
            outcome = _run_node(self, model, node)
            if profiler is not None:
                profiler.end("worker.node")
            outcomes.append(outcome)
            node_id, tenants = node
            rows = outcome[1]
            instructions, dram_bytes = node_totals(rows)
            if tracer is not None:
                tracer.emit(
                    "node", f"node{node_id}",
                    time=0.0, duration=span,
                    node=node_id,
                    tenants=len(rows),
                    instructions=instructions,
                    dram_bytes=dram_bytes,
                )
                for tenant, row in zip(tenants, rows):
                    abbr = tenant[1]
                    job_id, retired, _, _, _, _, departed, active = row
                    tracer.emit(
                        "node", abbr,
                        time=0.0, duration=float(active),
                        node=node_id,
                        job_id=job_id,
                        benchmark=abbr,
                        retired=retired,
                        departed=departed,
                    )
            if metrics is not None:
                m_node_rounds.inc()
                m_instructions.inc(float(instructions))
                m_dram.inc(float(dram_bytes))
                for tenant, row in zip(tenants, rows):
                    *_, departed, active = row
                    m_tenant_rounds.labels(benchmark=tenant[1]).inc()
                    m_active.inc(float(active))
                    if departed:
                        m_departures.inc()
        return FleetShardResult(nodes=tuple(outcomes))


def _run_node(job: FleetShardJob, model: PerformanceModel,
              node: NodeRow) -> NodeOutcomeRow:
    node_id, tenants = node
    if not tenants:
        return node_id, ()
    apps = [
        _restore(row, job.instructions_per_kernel, node_id) for row in tenants
    ]
    slices = slice_node(
        model, job.config, [a.current_kernel for a in apps], job.slicing
    )
    span = job.round_cycles
    outcomes = []
    for (job_id, _, _, _, remaining, penalty), app, (sms, channels) in zip(
            tenants, apps, slices):
        throughput = model.throughput(app.current_kernel, sms, channels)
        ipc = throughput.ipc * penalty
        retired = int(ipc * span)
        active = span
        departed = False
        if remaining is not None and 0 < remaining <= retired:
            # The budget retires mid-round: the job departs at the cycle
            # its last instruction lands; its slice idles to the boundary.
            departed = True
            active = min(span, int(math.ceil(remaining / ipc)))
            retired = remaining
            remaining = 0
        elif remaining is not None:
            remaining -= retired
        app.advance(retired)
        outcomes.append((
            job_id, retired,
            throughput.dram_bytes_per_cycle * penalty * active,
            app.progress.kernel_index, app.progress.instructions_done,
            remaining, departed, active,
        ))
    return node_id, tuple(outcomes)
