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
    _model_for,
    node_totals,
)
from repro.errors import ConfigError, SimulationError
from repro.exec.executor import SweepExecutor
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.kernel import Application
from repro.metrics.energy import EnergyBreakdown, EnergyLedger, EnergyModel
from repro.metrics.multiprogram import (
    IntervalRun,
    interval_antt,
    interval_stp,
    makespan,
    mean_queueing_delay,
)
from repro.obs import OFF, Obs
from repro.telemetry.provenance import config_hash
from repro.workloads.arrivals import ArrivalSchedule
from repro.workloads.benchmarks import TABLE2, build_application


@dataclass(eq=False)
class _JobRecord:
    """Coordinator-side lifecycle state of one job (one object per job,
    so equality is identity: residency lists remove by it)."""

    job_id: int
    abbr: str
    name: str
    arrival_cycle: int
    remaining: Optional[int]        #: instructions to retirement; None = resident
    memory_bound: bool              #: placement class (Equation 1/2)
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
    (serial or sharded) produce identical results.

    ``executor`` runs the per-round shard jobs; pass one entered as a
    context manager (``with SweepExecutor(jobs=8) as ex:``) to reuse one
    process pool across all rounds.  The default is in-process serial
    execution.  ``energy_model`` enables joule accounting (idle nodes
    are powered down); ``CONSOLIDATE`` placement attaches a default
    model automatically since its rebalancing pass scores against it.
    ``obs`` (a :class:`~repro.obs.Obs` handle) gets the fleet's trace,
    metrics and phases; when it is on, every round's shard jobs are
    captured in their workers and absorbed back into it.  The run's
    ``fleet`` events are its one log: a ``run`` event names the run's
    shape, then each job's ``arrive``/``admit``/``depart``/``migrate``
    and each ``round``, every one stamped with :attr:`run_id`.
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
        obs: Obs = OFF,
        health: Optional[FleetHealthMonitor] = None,
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
        config = config if config is not None else DEFAULT_GPU_CONFIG
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
        self.health = health
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
        self.obs = obs
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
        if obs.on:
            from repro.telemetry import names as _names

            obs.declare("fleet")
            self._m_energy = obs.metric(_names.fleet_energy_joules_total)

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

    def _template(self, abbr: str) -> Application:
        """The catalog application at this simulator's kernel length."""
        return build_application(
            abbr, instructions_per_kernel=self.instructions_per_kernel
        )

    def _memory_bound(self, abbr: str) -> bool:
        """Equation 1/2 classification at the even two-way split."""
        cached = self._class_memo.get(abbr)
        if cached is None:
            cached = is_memory_bound(self._model, self._template(abbr))
            self._class_memo[abbr] = cached
        return cached

    def _footprint(self, abbr: str) -> int:
        return self._template(abbr).footprint_bytes

    def _solo_ipc(self, abbr: str) -> float:
        """Steady whole-GPU rate over one full launch (IPC^alone)."""
        cached = self._solo_memo.get(abbr)
        if cached is None:
            template = self._template(abbr)
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
            template = self._template(abbr)
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
        self._index.update(node.node_id, tuple([
            r.memory_bound for r in node.resident
        ]))

    def _emit(self, name: str, now: int, **args) -> None:
        args.setdefault("run_id", self.run_id)
        self.obs.emit("fleet", name, time=float(now), **args)

    def _admit(self, wait: Deque[_JobRecord], now: int) -> int:
        obs = self.obs
        admitted = 0
        while wait:
            record = wait[0]
            choice = choose_node(
                self.placement, self._index.heads(), record.memory_bound,
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
            if obs.on:
                self._emit("admit", now, job_id=record.job_id,
                           node_id=node.node_id,
                           delay=now - record.arrival_cycle)
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
        shard_outcomes = self.executor.run(jobs, obs=self.obs)
        self._shard_runs += len(jobs)
        # Worker trace timestamps are round-relative cycles; re-anchoring
        # at the round's start cycle puts node-physics spans on the same
        # timeline as the orchestrator's ``fleet`` events.
        self.obs.absorb(
            self.executor.last_envelopes, prefix=("fleet.execute",),
            shard_prefix=f"r{round_index}.s", time_shift=float(now),
            run_id=self.run_id,
        )
        return [node_out for rows in shard_outcomes for node_out in rows]

    def _merge(self, outcomes, records_by_id: Dict[int, _JobRecord],
               now: int, span: int) -> int:
        obs = self.obs
        departures = 0
        if self._energy is not None:
            self._energy.add(span, [node_totals(rows) for _, rows in outcomes])
        for node_id, rows in outcomes:
            node = self._nodes[node_id]
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
                    if obs.on:
                        self._emit("depart", record.depart_cycle,
                                   job_id=record.job_id, node_id=node.node_id,
                                   instructions=record.instructions)
                else:
                    record.remaining = remaining
        return departures

    def _rebalance(self, now: int) -> int:
        """Cross-shard consolidation: drain nearly-empty nodes into other
        active nodes (``FRAG_AWARE`` always; ``CONSOLIDATE`` only when
        static-power savings beat the migration energy).  Moved tenants
        pay ``migration_penalty`` on next round's IPC."""
        obs = self.obs
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
                    record.memory_bound,
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
                if obs.on:
                    self._emit("migrate", now, job_id=record.job_id,
                               node_id=target.node_id, source=source.node_id)
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
        obs = self.obs
        if obs.on:
            # The one event linking this run_id to its shape; no worker
            # count, so serial and sharded traces stay equal.
            self._emit(
                "run", 0, placement=self.placement.value,
                slicing=self.slicing, nodes=self.num_nodes,
                tenants_per_node=self.tenants_per_node,
                horizon=self.horizon_cycles, round_cycles=self.round_cycles,
                arrivals=len(events),
            )
        self._shard_runs = 0
        self._migrated_bytes = 0.0
        self._energy = (
            EnergyLedger(self.energy_model)
            if self.energy_model is not None else None
        )

        wait: Deque[_JobRecord] = deque()
        records: List[_JobRecord] = []
        records_by_id: Dict[int, _JobRecord] = {}
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
                abbr = self._abbr_of(event.app)
                record = _JobRecord(
                    job_id=event.app.app_id,
                    abbr=abbr,
                    name=event.app.name,
                    arrival_cycle=event.cycle,
                    remaining=event.budget_instructions,
                    memory_bound=self._memory_bound(abbr),
                )
                records.append(record)
                records_by_id[record.job_id] = record
                wait.append(record)
                if obs.on:
                    self._emit("arrive", event.cycle, job_id=record.job_id,
                               benchmark=record.abbr)

            with obs.span("fleet.place"):
                admissions += self._admit(wait, now)

            active = [n for n in self._nodes if n.resident]
            if not active and not wait and index >= len(events):
                break   # drained: nothing resident, queued or pending

            span = min(self.round_cycles, self.horizon_cycles - now)
            executed = bool(active)
            if active:
                with obs.span("fleet.execute"):
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
                with obs.span("fleet.rebalance"):
                    migrations += self._rebalance(now)

            # One event per round with the queue/residency state, so
            # post-hoc analysis (repro.inspect) can rebuild the wait-depth
            # timeline from the trace stream alone; the round's metrics
            # fold from it before the epoch observers sample them.
            if obs.on:
                occupied = [n for n in self._nodes if n.resident]
                self._emit(
                    "round", now, round=rounds - 1, wait=len(wait),
                    resident=sum(len(n.resident) for n in occupied),
                    departures=departures, active=len(occupied),
                    fragmentation=sum(
                        self.tenants_per_node - len(n.resident)
                        for n in occupied
                    ) / self.capacity,
                )
                obs.epoch_boundary(rounds - 1, now)

            if self.health is not None and executed:
                self.health.observe_round(
                    rounds - 1,
                    now=now,
                    job_seconds=tuple(self.executor.last_stats.job_seconds),
                    wait_depth=len(wait),
                )

        energy = None
        if self._energy is not None:
            migration_joules = self.energy_model.energy(
                0, 0, 0, self._migrated_bytes
            ).migration
            energy = self._energy.breakdown(migration_joules)
            if obs.on:
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
        health_report = (
            self.health.report() if self.health is not None else None
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
            health=health_report,
        )

    @property
    def capacity(self) -> int:
        return self.num_nodes * self.tenants_per_node
