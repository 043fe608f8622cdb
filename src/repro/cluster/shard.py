"""Fleet shard jobs: node-round execution as pure, picklable work units.

The fleet simulator advances hundreds of nodes in fixed scheduling
rounds.  Within a round nodes are independent — each executes only its
own tenants — so the coordinator partitions the active nodes into
*shards* and runs them through the :class:`~repro.exec.SweepExecutor`
exactly like sweep jobs.  Because the physics of one node never depends
on which shard it landed in, a sharded round is byte-identical to the
serial one.  A :class:`FleetShardJob` is a pure function of its fields
(plain integers and strings, no live objects), and a shard returns a
tuple of node outcome rows in shard order.

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
that row's physics (:func:`_check_row`); a bad row raises
:class:`~repro.errors.ConfigError` naming the job and the node.

A round runs on the rows themselves; nothing per tenant is rebuilt.
Each row is checked against its benchmark's Table 2 kernel tuple
(:func:`~repro.workloads.benchmarks.catalog_kernels`, built once per
process), and the round's retired instructions move the row's
``(kernel_index, kernel_instructions_done)`` cursor by arithmetic on
those kernels' lengths (:func:`advance_cursor`, the cursor
:meth:`~repro.gpu.kernel.Application.advance` leaves).

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

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.performance import PerformanceModel
from repro.obs import OFF, Obs
from repro.workloads.benchmarks import catalog_kernels

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


def node_totals(rows: Sequence[OutcomeRow]) -> Tuple[int, float]:
    """A node's retired instructions and DRAM bytes, summed in tenant
    order (the order the energy ledger adds them in)."""
    return sum(map(itemgetter(1), rows)), sum(map(itemgetter(2), rows))


# ----------------------------------------------------------------------
# Worker-side memos (pure caches keyed by content, safe per process)
# ----------------------------------------------------------------------
_MODELS: Dict[GPUConfig, PerformanceModel] = {}


def _model_for(config: GPUConfig) -> PerformanceModel:
    model = _MODELS.get(config)
    if model is None:
        model = _MODELS[config] = PerformanceModel(config)
    return model


def _reject(job_id: int, node_id: int, problem: str) -> ConfigError:
    return ConfigError(f"job {job_id} on node {node_id}: {problem}")


def _check_row(row: TenantRow, instructions_per_kernel: int,
               node_id: int) -> Tuple[Kernel, ...]:
    """Check one tenant row and return its benchmark's catalog kernels;
    a bad row raises :class:`ConfigError` naming job and node."""
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
    # The kernels build_application gives the coordinator (hit curves
    # on), from the same cache entry.
    kernels = catalog_kernels(abbr, instructions_per_kernel, True)
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
    return kernels


def advance_cursor(kernels: Sequence[Kernel], kernel_index: int, done: int,
                   instructions: int) -> Tuple[int, int]:
    """The cursor ``(kernel_index, instructions_done)`` after retiring
    ``instructions`` (>= 0) from a valid cursor over ``kernels``.

    Same walk as :meth:`~repro.gpu.kernel.Application.advance`: a kernel
    retired exactly to its end moves the cursor to the next kernel's
    start, and the last kernel wraps to kernel 0.  Whole launches are
    skipped by arithmetic, so the cost does not grow with their number.
    """
    left = kernels[kernel_index].instructions - done
    if instructions < left:
        return kernel_index, done + instructions
    instructions -= left
    kernel_index = (kernel_index + 1) % len(kernels)
    instructions %= sum(k.instructions for k in kernels)
    while instructions >= kernels[kernel_index].instructions:
        instructions -= kernels[kernel_index].instructions
        kernel_index = (kernel_index + 1) % len(kernels)
    return kernel_index, instructions


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
    docstring).  ``label`` is a display string for trace/stats output;
    the physics never reads it.
    """

    nodes: Tuple[NodeRow, ...]
    round_cycles: int
    instructions_per_kernel: int
    slicing: str = "ugpu"
    config: GPUConfig = DEFAULT_GPU_CONFIG
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

    def run(self, obs: Obs = OFF) -> Tuple[NodeOutcomeRow, ...]:
        """Execute every node in the shard (worker-side entry point).

        The physics path is untouched — :func:`_run_node` stays pure;
        ``obs`` (a worker's capture handle) observes around each node.
        Trace timestamps are *round-relative* cycles (node spans start at
        0); the orchestrator re-anchors them at the round's start cycle
        when it absorbs the envelope.  Event and metric content depends
        only on the node/tenant structure, never on worker identity or
        wall time, so serial and sharded runs produce identical merged
        aggregates.
        """
        model = _model_for(self.config)
        if not obs.on:
            return tuple(_run_node(self, model, node) for node in self.nodes)
        obs.declare("node")
        outcomes = []
        span = float(self.round_cycles)
        for node in self.nodes:
            obs.begin("worker.node")
            outcome = _run_node(self, model, node)
            obs.end("worker.node")
            outcomes.append(outcome)
            node_id, tenants = node
            rows = outcome[1]
            instructions, dram_bytes = node_totals(rows)
            obs.emit(
                "node", f"node{node_id}",
                time=0.0, duration=span,
                node_id=node_id,
                tenants=len(rows),
                instructions=instructions,
                dram_bytes=dram_bytes,
            )
            for tenant, row in zip(tenants, rows):
                abbr = tenant[1]
                job_id, retired, _, _, _, _, departed, active = row
                obs.emit(
                    "node", abbr,
                    time=0.0, duration=float(active),
                    node_id=node_id,
                    job_id=job_id,
                    benchmark=abbr,
                    retired=retired,
                    departed=departed,
                )
        return tuple(outcomes)


def _run_node(job: FleetShardJob, model: PerformanceModel,
              node: NodeRow) -> NodeOutcomeRow:
    """One node's round, computed on its tenant rows."""
    node_id, tenants = node
    if not tenants:
        return node_id, ()
    # Every row is checked before any row's physics; a row's kernels are
    # its benchmark's shared catalog tuple.
    programs = [
        _check_row(row, job.instructions_per_kernel, node_id)
        for row in tenants
    ]
    current = [kernels[row[2]] for row, kernels in zip(tenants, programs)]
    slices = slice_node(model, job.config, current, job.slicing)
    span = job.round_cycles
    outcomes = []
    for row, kernels, kernel, (sms, channels) in zip(
            tenants, programs, current, slices):
        job_id, _, kernel_index, done, remaining, penalty = row
        # The model's memo keys on the kernel object, whose hash is
        # cached, so a repeated slice is one dict hit.
        throughput = model.throughput(kernel, sms, channels)
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
        kernel_index, done = advance_cursor(kernels, kernel_index, done,
                                            retired)
        outcomes.append((
            job_id, retired,
            throughput.dram_bytes_per_cycle * penalty * active,
            kernel_index, done, remaining, departed, active,
        ))
    return node_id, tuple(outcomes)
