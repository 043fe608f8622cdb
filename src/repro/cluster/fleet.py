"""Fleet-scale datacenter simulation: hundreds of GPUs, thousands of jobs.

This is the ROADMAP's "millions of users" story made concrete: an open
system where jobs from the Table 2 catalog arrive on a seeded Poisson
stream (:mod:`repro.workloads.arrivals`), queue for a node slot, run
under a per-node slicing mode (unbalanced UGPU slices or rigid MIG-like
ones), and depart when they retire their instruction budget.  Placement
is a pluggable policy from :mod:`repro.cluster.placement` — the paper's
demand-aware pairing next to the fragmentation-aware online scheduler of
Ting et al. and the throughput+energy consolidating manager of Saraha et
al. — all competing over the *same* arrival stream.

Time advances in fixed scheduling rounds.  Per round the coordinator:

1. moves arrivals whose cycle has passed into a FIFO wait queue,
2. admits waiting jobs while the placement policy finds a free slot
   (choosing over a :class:`~repro.cluster.placement.PlacementIndex`
   kept current at every admission, departure and migration, so the
   cost of an admission does not grow with the node count),
3. executes every active node for the round — the physics lives in
   :mod:`repro.cluster.shard`, sharded across the
   :class:`~repro.exec.SweepExecutor`'s worker processes (node results
   are independent of shard grouping, so a ``jobs=N`` run is
   byte-identical to the serial one),
4. applies departures at the cycle each budget retired, and
5. periodically runs the policy's cross-shard rebalancing pass
   (``FRAG_AWARE`` drains nearly-empty nodes to defragment;
   ``CONSOLIDATE`` does the same only when the static-power savings of
   powering a node down beat the migration energy, scored against
   :class:`~repro.metrics.energy.EnergyModel`).  Migrated tenants pay a
   one-round IPC penalty for the move.

Scoring uses the open-system interval metrics
(:mod:`repro.metrics.multiprogram`): occupancy-weighted STP and ANTT,
mean queueing delay, plus time-averaged fragmentation (stranded slots on
active nodes), mean active nodes, and — when an energy model is
attached — a fleet :class:`~repro.metrics.energy.EnergyBreakdown` where
idle nodes are powered down (the consolidation payoff).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.health import FleetHealthMonitor, HealthReport
from repro.cluster.placement import (
    PlacementIndex,
    PlacementPolicy,
    choose_node,
    is_memory_bound,
)
from repro.cluster.shard import (
    CHANNEL_FLOOR,
    SLICING_MODES,
    SM_FLOOR,
    FleetShardJob,
    FleetShardResult,
    _model_for,
    _template,
    node_totals,
)
from repro.errors import ConfigError, SimulationError
from repro.exec.executor import SweepExecutor
from repro.gpu.config import GPUConfig
from repro.metrics.energy import EnergyBreakdown, EnergyModel
from repro.metrics.multiprogram import (
    IntervalRun,
    interval_antt,
    interval_stp,
    makespan,
    mean_queueing_delay,
)
from repro.workloads.arrivals import ArrivalSchedule
from repro.workloads.benchmarks import TABLE2


@dataclass
class _JobRecord:
    """Coordinator-side lifecycle state of one job."""

    job_id: int
    abbr: str
    name: str
    arrival_cycle: int
    remaining: Optional[int]        #: instructions to retirement; None = resident
    admit_cycle: Optional[int] = None
    depart_cycle: Optional[int] = None
    node_id: Optional[int] = None
    instructions: int = 0
    kernel_index: int = 0
    kernel_instructions_done: int = 0
    penalty_factor: float = 1.0
    migrations: int = 0


@dataclass
class _NodeState:
    node_id: int
    resident: List[_JobRecord] = field(default_factory=list)


@dataclass
class FleetResult:
    """Outcome of one fleet run under one placement policy."""

    placement: PlacementPolicy
    slicing: str
    num_nodes: int
    tenants_per_node: int
    horizon_cycles: int
    round_cycles: int
    rounds: int
    runs: List[IntervalRun]
    arrivals: int
    admissions: int
    departures: int
    migrations: int
    migrated_bytes: float
    waiting_at_horizon: int
    never_arrived: int
    fragmentation: float            #: time-averaged stranded-slot fraction
    mean_active_nodes: float
    shard_runs: int
    energy: Optional[EnergyBreakdown] = None
    provenance: Dict[str, str] = field(default_factory=dict)
    #: Health-monitor verdict, when one was attached.  Wall-clock shaped
    #: (stragglers are host-time outliers), so it is deliberately
    #: excluded from :meth:`summary` — summaries stay deterministic.
    health: Optional[HealthReport] = None

    @property
    def capacity(self) -> int:
        return self.num_nodes * self.tenants_per_node

    @property
    def stp(self) -> float:
        """Occupancy-weighted cluster STP over the horizon."""
        if not self.runs:
            return 0.0
        return interval_stp(self.runs, self.horizon_cycles)

    @property
    def antt(self) -> float:
        if not self.runs:
            return 0.0
        return interval_antt(self.runs, self.horizon_cycles)

    @property
    def mean_queueing_delay(self) -> float:
        if not self.runs:
            return 0.0
        return mean_queueing_delay(self.runs)

    @property
    def makespan(self) -> int:
        if not self.runs:
            return 0
        return makespan(self.runs, self.horizon_cycles)

    def summary(self) -> Dict[str, object]:
        """Deterministic scalars for tables and bench metadata."""
        out: Dict[str, object] = {
            "placement": self.placement.value,
            "slicing": self.slicing,
            "rounds": self.rounds,
            "arrivals": self.arrivals,
            "admissions": self.admissions,
            "departures": self.departures,
            "migrations": self.migrations,
            "waiting_at_horizon": self.waiting_at_horizon,
            "stp": round(self.stp, 6),
            "antt": round(self.antt, 6),
            "mean_queueing_delay": round(self.mean_queueing_delay, 1),
            "fragmentation": round(self.fragmentation, 6),
            "mean_active_nodes": round(self.mean_active_nodes, 3),
        }
        if self.energy is not None:
            out["energy_joules"] = round(self.energy.total, 3)
        return out


class FleetSimulator:
    """Drive an open-system fleet of GPU nodes through one horizon.

    Single-use, like :class:`~repro.core.system.MultitaskSystem`: build a
    fresh simulator per run.  Everything is deterministic — placement
    orderings end in node ids, queues are FIFO, and node execution is a
    pure function of tenant state — so two runs of the same configuration
    (serial, sharded, or cached) produce identical results.

    ``executor`` runs the per-round shard jobs; pass one entered as a
    context manager (``with SweepExecutor(jobs=8) as ex:``) to reuse one
    process pool across all rounds.  The default is in-process serial
    execution.  ``energy_model`` enables joule accounting (idle nodes
    are powered down); ``CONSOLIDATE`` placement attaches a default
    model automatically since its rebalancing pass scores against it.
    """

    def __init__(
        self,
        num_nodes: int,
        arrivals: ArrivalSchedule,
        placement: PlacementPolicy = PlacementPolicy.LEAST_FRAGMENTED,
        *,
        slicing: str = "ugpu",
        config: Optional[GPUConfig] = None,
        tenants_per_node: int = 4,
        round_cycles: int = 2_500_000,
        horizon_cycles: int = 150_000_000,
        rebalance_every: int = 8,
        migration_penalty: float = 0.25,
        instructions_per_kernel: int = 2_000_000_000,
        executor: Optional[SweepExecutor] = None,
        energy_model: Optional[EnergyModel] = None,
        metrics=None,
        tracer=None,
        profiler=None,
        log=None,
        health: Optional[FleetHealthMonitor] = None,
        capture: Optional[bool] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if tenants_per_node <= 0:
            raise ConfigError("tenants_per_node must be positive")
        if round_cycles <= 0 or horizon_cycles <= 0:
            raise ConfigError("round_cycles and horizon_cycles must be positive")
        if rebalance_every < 1:
            raise ConfigError("rebalance_every must be >= 1")
        if not 0.0 <= migration_penalty < 1.0:
            raise ConfigError("migration_penalty must be in [0, 1)")
        if slicing not in SLICING_MODES:
            raise ConfigError(
                f"unknown slicing {slicing!r}; options: "
                f"{', '.join(SLICING_MODES)}"
            )
        config = config if config is not None else GPUConfig()
        config.validate()
        if (config.num_sms // tenants_per_node < SM_FLOOR
                or config.num_channels // tenants_per_node < CHANNEL_FLOOR):
            raise ConfigError(
                f"{tenants_per_node} tenants per node break the "
                f"{SM_FLOOR}-SM/{CHANNEL_FLOOR}-channel slice floors"
            )
        self.placement = PlacementPolicy.parse(placement)
        self.arrivals = arrivals
        self.slicing = slicing
        self.config = config
        self.num_nodes = num_nodes
        self.tenants_per_node = tenants_per_node
        self.round_cycles = round_cycles
        self.horizon_cycles = horizon_cycles
        self.rebalance_every = rebalance_every
        self.migration_penalty = migration_penalty
        self.instructions_per_kernel = instructions_per_kernel
        self.executor = executor if executor is not None else SweepExecutor()
        if energy_model is None and self.placement is PlacementPolicy.CONSOLIDATE:
            energy_model = EnergyModel(config)
        self.energy_model = energy_model
        self.tracer = tracer
        self.profiler = profiler
        self.health = health
        #: Worker-side capture: explicit flag, else inferred — any
        #: orchestrator sink present means the caller wants the worker
        #: half of the merged streams too.
        self._capture = (
            capture if capture is not None
            else (tracer is not None or metrics is not None
                  or profiler is not None)
        )
        from repro.telemetry.provenance import config_hash

        #: Deterministic run correlation ID: a hash of the run's shape,
        #: so serial and sharded runs of one configuration correlate.
        self.run_id = config_hash(
            config,
            placement=PlacementPolicy.parse(placement).value,
            slicing=slicing,
            nodes=num_nodes,
            tenants=tenants_per_node,
            round=round_cycles,
            horizon=horizon_cycles,
            arrivals=len(arrivals),
        )
        self.log = (
            log.bind(run_id=self.run_id, placement=self.placement.value)
            if log is not None else None
        )
        if health is not None and not getattr(health, "run_id", ""):
            health.run_id = self.run_id
        self._model = _model_for(config)
        self._nodes = [_NodeState(i) for i in range(num_nodes)]
        #: Placement candidates, kept current at every residency change.
        self._index = PlacementIndex(tenants_per_node, range(num_nodes))
        self._catalog = {spec.abbr for spec in TABLE2}
        self._class_memo: Dict[str, bool] = {}
        self._solo_memo: Dict[str, float] = {}
        self._ran = False
        self.metrics = metrics
        if metrics is not None:
            from repro.telemetry import names as _names

            self._m_rounds = _names.fleet_rounds_total(metrics)
            self._m_jobs = _names.fleet_jobs_total(metrics)
            self._m_wait = _names.fleet_wait_queue_depth(metrics)
            self._m_resident = _names.fleet_resident_jobs(metrics)
            self._m_active = _names.fleet_active_nodes(metrics)
            self._m_frag = _names.fleet_fragmentation(metrics)
            self._m_delay = _names.fleet_queueing_delay_cycles(metrics)
            self._m_energy = _names.fleet_energy_joules_total(metrics)

    # ------------------------------------------------------------------
    # Per-benchmark memos (coordinator side)
    # ------------------------------------------------------------------
    def _abbr_of(self, app) -> str:
        if app.name not in self._catalog:
            raise ConfigError(
                f"fleet arrivals must come from the Table 2 catalog; "
                f"{app.name!r} is not a known benchmark"
            )
        return app.name

    def _memory_bound(self, abbr: str) -> bool:
        """Equation 1/2 classification at the even two-way split."""
        cached = self._class_memo.get(abbr)
        if cached is None:
            cached = is_memory_bound(
                self._model, _template(abbr, self.instructions_per_kernel)
            )
            self._class_memo[abbr] = cached
        return cached

    def _footprint(self, abbr: str) -> int:
        return _template(abbr, self.instructions_per_kernel).footprint_bytes

    def _solo_ipc(self, abbr: str) -> float:
        """Steady whole-GPU rate over one full launch (IPC^alone)."""
        cached = self._solo_memo.get(abbr)
        if cached is None:
            template = _template(abbr, self.instructions_per_kernel)
            cycles = 0.0
            for kernel in template.kernels:
                ipc = self._model.throughput(
                    kernel, self.config.num_sms, self.config.num_channels
                ).ipc
                if ipc <= 0:
                    raise SimulationError(
                        f"{abbr}: solo IPC is zero on the full GPU"
                    )
                cycles += kernel.instructions / ipc
            cached = template.instructions_per_launch / cycles
            self._solo_memo[abbr] = cached
        return cached

    def _validate_schedule(self, events) -> None:
        """Every arrival must rebuild identically in the workers: the
        schedule's applications must match the catalog at *this*
        simulator's ``instructions_per_kernel``."""
        seen = set()
        for event in events:
            abbr = self._abbr_of(event.app)
            if abbr in seen:
                continue
            seen.add(abbr)
            template = _template(abbr, self.instructions_per_kernel)
            if [k.instructions for k in template.kernels] != [
                k.instructions for k in event.app.kernels
            ]:
                raise ConfigError(
                    f"arrival schedule was built with a different "
                    f"instructions_per_kernel than the simulator's "
                    f"{self.instructions_per_kernel} (job {event.app.app_id}, "
                    f"{abbr})"
                )

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def _reindex(self, node: _NodeState) -> None:
        self._index.update(node.node_id, tuple(
            self._memory_bound(r.abbr) for r in node.resident
        ))

    def _trace(self, name: str, now: int, **args) -> None:
        if self.tracer is not None:
            args.setdefault("run_id", self.run_id)
            self.tracer.emit("fleet", name, time=float(now), **args)

    def _admit(self, wait: Deque[_JobRecord], now: int) -> int:
        admitted = 0
        while wait:
            record = wait[0]
            choice = choose_node(
                self.placement, self._index.heads(),
                self._memory_bound(record.abbr),
            )
            if choice is None:
                break
            wait.popleft()
            node = self._nodes[choice.node_id]
            node.resident.append(record)
            self._reindex(node)
            record.admit_cycle = now
            record.node_id = node.node_id
            admitted += 1
            self._trace("admit", now, job=record.job_id, node=node.node_id)
            if self.log is not None:
                self.log.debug(
                    "fleet.admit", job_id=record.job_id,
                    node_id=node.node_id, now=now,
                    delay=now - record.arrival_cycle,
                )
            if self.metrics is not None:
                self._m_jobs.labels(event="admitted").inc()
                self._m_delay.observe(now - record.arrival_cycle)
        return admitted

    def _execute(self, active: List[_NodeState], span: int,
                 round_index: int, now: int) -> List:
        node_rows = [
            (n.node_id, tuple([
                (r.job_id, r.abbr, r.kernel_index,
                 r.kernel_instructions_done, r.remaining, r.penalty_factor)
                for r in n.resident
            ]))
            for n in active
        ]
        shards = max(1, min(self.executor.jobs, len(node_rows)))
        chunk = math.ceil(len(node_rows) / shards)
        jobs = [
            FleetShardJob(
                nodes=tuple(node_rows[i:i + chunk]),
                round_cycles=span,
                instructions_per_kernel=self.instructions_per_kernel,
                slicing=self.slicing,
                config=self.config,
                label=f"round{round_index}",
            )
            for i in range(0, len(node_rows), chunk)
        ]
        results: List[FleetShardResult] = self.executor.run(
            jobs, capture=self._capture
        )
        self._shard_runs += len(jobs)
        if self._capture:
            self._absorb_envelopes(
                self.executor.last_envelopes, round_index, now
            )
        return [node_out for result in results for node_out in result.nodes]

    def _absorb_envelopes(self, envelopes, round_index: int,
                          round_start: int) -> None:
        """Fold worker captures into the orchestrator sinks, shard order.

        Worker trace timestamps are round-relative cycles; re-anchoring
        at the round's start cycle puts node-physics spans on the same
        timeline as the orchestrator's ``fleet`` events.  The shift never
        enters the shard cache key (like ``label``), so cached envelopes
        replay correctly at whatever round they hit.
        """
        for shard_index, envelope in enumerate(envelopes):
            if envelope is None or envelope.obs is None:
                continue
            obs = envelope.obs
            shard_id = f"r{round_index}.s{shard_index}"
            if self.tracer is not None and obs.events:
                self.tracer.absorb(
                    obs.events,
                    time_shift=float(round_start),
                    run_id=self.run_id,
                    shard_id=shard_id,
                    pid=envelope.pid,
                    worker=envelope.worker,
                )
            if self.metrics is not None and obs.metrics:
                from repro.telemetry.merge import merge_registry

                merge_registry(self.metrics, obs.metrics)
            if self.profiler is not None and obs.profile:
                self.profiler.absorb(
                    obs.profile, prefix=("fleet.execute",)
                )

    def _merge(self, outcomes, records_by_id: Dict[int, _JobRecord],
               now: int, span: int) -> int:
        departures = 0
        for node_id, rows in outcomes:
            node = self._nodes[node_id]
            if self.energy_model is not None:
                breakdown = self.energy_model.energy(span, *node_totals(rows))
                self._e_core_static += breakdown.core_static
                self._e_core_dynamic += breakdown.core_dynamic
                self._e_mem_static += breakdown.mem_static
                self._e_mem_dynamic += breakdown.mem_dynamic
            for (job_id, retired, _, kernel_index, done, remaining,
                 departed, active_cycles) in rows:
                record = records_by_id[job_id]
                record.instructions += retired
                record.kernel_index = kernel_index
                record.kernel_instructions_done = done
                record.penalty_factor = 1.0   # a migration costs one round
                if departed:
                    record.remaining = 0
                    record.depart_cycle = now + active_cycles
                    node.resident.remove(record)
                    self._reindex(node)
                    departures += 1
                    self._trace("depart", record.depart_cycle,
                                job=record.job_id, node=node.node_id)
                    if self.log is not None:
                        self.log.debug(
                            "fleet.depart", job_id=record.job_id,
                            node_id=node.node_id,
                            now=record.depart_cycle,
                            instructions=record.instructions,
                        )
                    if self.metrics is not None:
                        self._m_jobs.labels(event="departed").inc()
                else:
                    record.remaining = remaining
        return departures

    def _rebalance(self, now: int) -> int:
        """Cross-shard consolidation: drain nearly-empty nodes into other
        active nodes (``FRAG_AWARE`` always; ``CONSOLIDATE`` only when
        static-power savings beat the migration energy).  Moved tenants
        pay ``migration_penalty`` on next round's IPC."""
        moves = 0
        received = set()
        sources = sorted(
            (n for n in self._nodes if n.resident),
            key=lambda n: (len(n.resident), -n.node_id),
        )
        for source in sources:
            if not source.resident or source.node_id in received:
                continue
            free_elsewhere = self._index.active_free_slots - (
                self.tenants_per_node - len(source.resident)
            )
            if free_elsewhere < len(source.resident):
                continue
            tenants = list(source.resident)
            if (self.placement is PlacementPolicy.CONSOLIDATE
                    and not self._worth_consolidating(tenants, now)):
                continue
            # The draining source is no target; it rejoins once drained.
            self._index.discard(source.node_id)
            for record in tenants:
                choice = choose_node(
                    self.placement, self._index.heads(active_only=True),
                    self._memory_bound(record.abbr),
                )
                if choice is None:   # pragma: no cover - precheck forbids
                    break
                source.resident.remove(record)
                target = self._nodes[choice.node_id]
                target.resident.append(record)
                self._reindex(target)
                received.add(target.node_id)
                record.node_id = target.node_id
                record.penalty_factor = 1.0 - self.migration_penalty
                record.migrations += 1
                self._migrated_bytes += self._footprint(record.abbr)
                moves += 1
                self._trace("migrate", now, job=record.job_id,
                            source=source.node_id, target=target.node_id)
                if self.log is not None:
                    self.log.debug(
                        "fleet.migrate", job_id=record.job_id,
                        node_id=target.node_id,
                        source=source.node_id, now=now,
                    )
                if self.metrics is not None:
                    self._m_jobs.labels(event="migrated").inc()
            self._reindex(source)
        return moves

    def _worth_consolidating(self, tenants: List[_JobRecord],
                             now: int) -> bool:
        """Saraha et al.'s energy score: does powering this node down for
        the next rebalance window save more static energy than moving its
        tenants' footprints costs?"""
        if self.energy_model is None:
            return True
        window = min(
            self.rebalance_every * self.round_cycles,
            self.horizon_cycles - now,
        )
        if window <= 0:
            return False
        model = self.energy_model
        seconds = window / model.config.sm_freq_hz
        saving = (model.core_static_watts + model.mem_static_watts) * seconds
        cost = model.energy(
            0, 0, 0, sum(self._footprint(r.abbr) for r in tenants)
        ).migration
        return saving > cost

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        if self._ran:
            raise SimulationError(
                "FleetSimulator.run() is single-use; build a fresh simulator"
            )
        self._ran = True
        events = list(self.arrivals)
        self._validate_schedule(events)
        if self.log is not None:
            self.log.info(
                "fleet.run", nodes=self.num_nodes,
                tenants_per_node=self.tenants_per_node,
                slicing=self.slicing,
                horizon=self.horizon_cycles,
                round_cycles=self.round_cycles,
                arrivals=len(events),
                workers=self.executor.jobs,
            )
        self._shard_runs = 0
        self._migrated_bytes = 0.0
        self._e_core_static = self._e_core_dynamic = 0.0
        self._e_mem_static = self._e_mem_dynamic = 0.0

        wait: Deque[_JobRecord] = deque()
        records: List[_JobRecord] = []
        records_by_id: Dict[int, _JobRecord] = {}
        prof = self.profiler
        index = 0
        now = 0
        rounds = 0
        admissions = 0
        departures = 0
        migrations = 0
        frag_weighted = 0.0
        active_weighted = 0.0

        while now < self.horizon_cycles:
            while index < len(events) and events[index].cycle <= now:
                event = events[index]
                index += 1
                record = _JobRecord(
                    job_id=event.app.app_id,
                    abbr=self._abbr_of(event.app),
                    name=event.app.name,
                    arrival_cycle=event.cycle,
                    remaining=event.budget_instructions,
                )
                records.append(record)
                records_by_id[record.job_id] = record
                wait.append(record)
                self._trace("arrive", event.cycle, job=record.job_id,
                            benchmark=record.abbr)
                if self.log is not None:
                    self.log.debug(
                        "fleet.arrive", job_id=record.job_id,
                        benchmark=record.abbr, now=event.cycle,
                    )
                if self.metrics is not None:
                    self._m_jobs.labels(event="arrived").inc()

            if prof is not None:
                with prof.span("fleet.place"):
                    admissions += self._admit(wait, now)
            else:
                admissions += self._admit(wait, now)

            active = [n for n in self._nodes if n.resident]
            if not active and not wait and index >= len(events):
                break   # drained: nothing resident, queued or pending

            span = min(self.round_cycles, self.horizon_cycles - now)
            executed = bool(active)
            if active:
                if prof is not None:
                    with prof.span("fleet.execute"):
                        outcomes = self._execute(active, span, rounds, now)
                else:
                    outcomes = self._execute(active, span, rounds, now)
                departures += self._merge(outcomes, records_by_id, now, span)
                stranded = sum(
                    self.tenants_per_node - len(n.resident) for n in active
                )
                frag_weighted += span * stranded / self.capacity
                active_weighted += span * len(active)

            rounds += 1
            now += span
            if (rounds % self.rebalance_every == 0
                    and now < self.horizon_cycles
                    and self.placement in (PlacementPolicy.FRAG_AWARE,
                                           PlacementPolicy.CONSOLIDATE)):
                if prof is not None:
                    with prof.span("fleet.rebalance"):
                        migrations += self._rebalance(now)
                else:
                    migrations += self._rebalance(now)

            if self.metrics is not None:
                self._m_rounds.inc()
                self._m_wait.set(len(wait))
                self._m_resident.set(
                    sum(len(n.resident) for n in self._nodes)
                )
                self._m_active.set(
                    sum(1 for n in self._nodes if n.resident)
                )
                frag_now = sum(
                    self.tenants_per_node - len(n.resident)
                    for n in self._nodes if n.resident
                ) / self.capacity
                self._m_frag.set(frag_now)
                self.metrics.epoch_boundary(rounds - 1, now)

            if self.health is not None and executed:
                stats = self.executor.last_stats
                self.health.observe_round(
                    rounds - 1,
                    now=now,
                    job_seconds=tuple(stats.job_seconds),
                    wait_depth=len(wait),
                    cache_hits=stats.cache_hits,
                    cache_lookups=stats.jobs_total,
                )

            # One instant per round with the queue/residency state, so
            # post-hoc analysis (repro.inspect) can rebuild the wait-depth
            # timeline from the trace stream alone.
            self._trace(
                "round", now, round=rounds - 1, wait=len(wait),
                resident=sum(len(n.resident) for n in self._nodes),
            )
            if self.log is not None:
                self.log.info(
                    "fleet.round", round=rounds - 1, now=now,
                    wait=len(wait),
                    resident=sum(len(n.resident) for n in self._nodes),
                    departures=departures,
                )

        energy = None
        if self.energy_model is not None:
            migration_joules = self.energy_model.energy(
                0, 0, 0, self._migrated_bytes
            ).migration
            energy = EnergyBreakdown(
                core_static=self._e_core_static,
                core_dynamic=self._e_core_dynamic,
                mem_static=self._e_mem_static,
                mem_dynamic=self._e_mem_dynamic,
                migration=migration_joules,
            )
            if self.metrics is not None:
                for component, joules in (
                    ("core_static", energy.core_static),
                    ("core_dynamic", energy.core_dynamic),
                    ("mem_static", energy.mem_static),
                    ("mem_dynamic", energy.mem_dynamic),
                    ("migration", energy.migration),
                ):
                    self._m_energy.labels(component=component).inc(joules)

        runs = [
            IntervalRun(
                app_id=r.job_id,
                name=r.name,
                instructions=r.instructions,
                ipc_alone=self._solo_ipc(r.abbr),
                arrival_cycle=r.arrival_cycle,
                admit_cycle=r.admit_cycle,
                depart_cycle=r.depart_cycle,
            )
            for r in records
            if r.admit_cycle is not None
        ]
        elapsed = max(1, now)
        from repro.telemetry.provenance import collect_provenance

        health_report = (
            self.health.report() if self.health is not None else None
        )
        if self.log is not None:
            self.log.info(
                "fleet.result", rounds=rounds,
                arrivals=len(records), admissions=admissions,
                departures=departures, migrations=migrations,
                waiting_at_horizon=len(wait),
                incidents=(
                    len(health_report.incidents)
                    if health_report is not None else None
                ),
            )
        return FleetResult(
            placement=self.placement,
            slicing=self.slicing,
            num_nodes=self.num_nodes,
            tenants_per_node=self.tenants_per_node,
            horizon_cycles=self.horizon_cycles,
            round_cycles=self.round_cycles,
            rounds=rounds,
            runs=runs,
            arrivals=len(records),
            admissions=admissions,
            departures=departures,
            migrations=migrations,
            migrated_bytes=self._migrated_bytes,
            waiting_at_horizon=len(wait),
            never_arrived=len(events) - index,
            fragmentation=frag_weighted / elapsed,
            mean_active_nodes=active_weighted / elapsed,
            shard_runs=self._shard_runs,
            energy=energy,
            provenance=collect_provenance(
                self.config,
                placement=self.placement.value,
                slicing=self.slicing,
            ),
            health=health_report,
        )

    @property
    def capacity(self) -> int:
        return self.num_nodes * self.tenants_per_node
