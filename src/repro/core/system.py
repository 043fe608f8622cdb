"""Epoch-level multitasking system simulation.

:class:`MultitaskSystem` is the shared runner: it advances co-executing
applications epoch by epoch, evaluating each on its slice with the
two-roofline performance model, charging any pending reallocation
penalties, and collecting STP/ANTT/energy at the end.  *What* the
partition looks like is delegated to a composed
:class:`~repro.policies.base.PartitionPolicy` (UGPU, BP variants, MPS,
CD-Search) through five hooks: ``initial_partition``,
``throughput_for``, ``on_epoch_end``, ``on_app_arrival`` and
``on_app_departure``.  Every run is spelled
``MultitaskSystem(apps, policy=XPolicy(...))``; policy state (profiler,
hysteresis, ...) is read from ``system.policy``.

Reallocation penalties are expressed as (window_cycles, slowdown_factor)
charges: during the window the application loses ``factor`` of its
throughput.  This matches the paper's behaviour where applications keep
executing while SMs drain/switch and pages migrate (Section 6.3).

Closed versus open system
-------------------------
Without an arrival schedule the runner reproduces the paper's closed
evaluation: a fixed mix over the whole horizon, byte-for-byte identical
to the golden fixtures under ``tests/golden``.  With
``arrivals=ArrivalSchedule(...)`` the runner becomes an open system: at
each epoch boundary it retires jobs that consumed their instruction
budget (``departure``), queues new jobs whose arrival cycle has passed
(``arrival``), and grants slices to queued jobs while residency is below
``max_slots`` (``admission``) —
departures run first so a same-boundary arrival can take the freed slot.
Each membership change flows through the policy hooks, which reuse the
:class:`PenaltyCharge` machinery so joins and leaves pay realistic
reallocation cost.  Open runs return an :class:`OpenSystemResult` with
occupancy-weighted interval STP/ANTT, queueing delay and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.slices import PartitionState, ResourceAllocation
from repro.errors import ConfigError, SimulationError
from repro.fastpath import resolve_kernel_backend
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Application
from repro.gpu.performance import PerformanceModel, SliceThroughput
from repro.metrics.energy import EnergyBreakdown, EnergyModel
from repro.metrics.multiprogram import (
    AppRun,
    IntervalRun,
    antt,
    interval_antt,
    interval_stp,
    makespan,
    mean_queueing_delay,
    stp,
)
from repro.obs import OFF, Obs
from repro.sim.epoch import EpochResult, EpochRunner
from repro.vm.oversubscription import FaultOverheadModel
from repro.workloads.arrivals import ArrivalEvent, ArrivalSchedule


@dataclass
class PenaltyCharge:
    """A pending throughput loss: ``factor`` of IPC lost for ``window``
    cycles of the next epoch(s).

    ``counts_as_migration`` marks windows reported in Figure 12a's
    per-epoch reallocation occupancy (SM handover plus eager page moves);
    background/lazy trickle windows are excluded there.
    """

    window_cycles: float
    factor: float
    counts_as_migration: bool = True

    def __post_init__(self) -> None:
        if self.window_cycles < 0 or not 0.0 <= self.factor <= 1.0:
            raise ConfigError(
                f"invalid penalty: window={self.window_cycles}, factor={self.factor}"
            )

    @property
    def lost_cycles(self) -> float:
        return self.window_cycles * self.factor


@dataclass
class AppState:
    """Simulation state of one co-executing application.

    The lifecycle fields default to the closed-system values: arrived
    and admitted at cycle 0, no budget (resident until the horizon),
    never departed.
    """

    app: Application
    allocation: ResourceAllocation
    instructions: int = 0
    dram_bytes: float = 0.0
    penalties: List[PenaltyCharge] = field(default_factory=list)
    migrated_bytes: float = 0.0
    arrival_cycle: int = 0
    admit_cycle: int = 0
    depart_cycle: Optional[int] = None
    budget_instructions: Optional[int] = None

    @property
    def app_id(self) -> int:
        return self.app.app_id

    @property
    def retired_budget(self) -> bool:
        return (
            self.budget_instructions is not None
            and self.instructions >= self.budget_instructions
        )


@dataclass
class SystemResult:
    """Outcome of a closed-system multiprogram simulation."""

    policy: str
    mix_name: str
    runs: List[AppRun]
    epochs: List[EpochResult]
    total_cycles: int
    energy: Optional[EnergyBreakdown] = None
    repartitions: int = 0

    @property
    def stp(self) -> float:
        return stp(self.runs)

    @property
    def antt(self) -> float:
        return antt(self.runs)

    @property
    def min_np(self) -> float:
        if not self.runs:
            raise SimulationError(
                f"{self.policy}/{self.mix_name}: no application runs to take "
                "min_np over (every application departed before the horizon?); "
                "open-system runs report interval metrics on OpenSystemResult"
            )
        return min(run.normalized_progress for run in self.runs)

    def migration_fractions(self) -> List[float]:
        return [e.migration_fraction for e in self.epochs]


@dataclass
class OpenSystemResult:
    """Outcome of an open-system (arrival/departure) simulation.

    ``runs`` covers every job that was ever admitted — still-resident
    jobs have ``depart_cycle=None``.  ``arrivals`` counts jobs whose
    arrival cycle fell inside the simulated horizon; jobs that arrived
    but were never admitted are ``arrivals - admissions``.
    """

    policy: str
    mix_name: str
    runs: List[IntervalRun]
    epochs: List[EpochResult]
    total_cycles: int
    energy: Optional[EnergyBreakdown] = None
    repartitions: int = 0
    arrivals: int = 0
    admissions: int = 0
    departures: int = 0

    @property
    def stp(self) -> float:
        """Occupancy-weighted interval STP."""
        return interval_stp(self.runs, self.total_cycles)

    @property
    def antt(self) -> float:
        """Occupancy-weighted interval ANTT."""
        return interval_antt(self.runs, self.total_cycles)

    @property
    def makespan(self) -> int:
        return makespan(self.runs, self.total_cycles)

    @property
    def mean_queueing_delay(self) -> float:
        return mean_queueing_delay(self.runs)

    def migration_fractions(self) -> List[float]:
        return [e.migration_fraction for e in self.epochs]


#: Process-wide memo of solo-run IPCs: the Equation 3/4 denominator is a
#: pure function of (application content, config, horizon, epoch length,
#: memory size), and sweeps re-derive it for every policy sharing a mix.
_SOLO_IPC_CACHE: Dict[Tuple, float] = {}


def clear_solo_ipc_cache() -> None:
    """Drop the process-wide solo-IPC memo (for tests)."""
    _SOLO_IPC_CACHE.clear()


class MultitaskSystem:
    """The shared epoch-level runner; composes a
    :class:`~repro.policies.base.PartitionPolicy`."""

    def __init__(
        self,
        applications: Sequence[Application],
        config: Optional[GPUConfig] = None,
        epoch_cycles: int = 5_000_000,
        energy_model: Optional[EnergyModel] = None,
        total_memory_bytes: Optional[int] = None,
        obs: Obs = OFF,
        policy=None,
        arrivals: Optional[ArrivalSchedule] = None,
        max_slots: Optional[int] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        """``total_memory_bytes`` enables memory-oversubscription modelling
        (paper Sections 3.2 and 5): each slice's capacity is proportional
        to its channel share, and applications whose footprint exceeds it
        pay far-fault overhead via
        :class:`repro.vm.oversubscription.FaultOverheadModel`.

        ``obs`` (a :class:`repro.obs.Obs` handle) observes the run.  Its
        trace gets one ``epoch`` span per simulated epoch; policies add
        ``realloc``/``qos``/``migration`` records, and the open-system
        lifecycle ``arrival``/``admission``/``departure`` records, on top.
        Its metrics are folded from those events: epoch counters and
        duration histogram, migration-stall cycles, and — in open runs —
        arrival/admission/departure counters, the queueing-delay
        histogram and the queue-depth gauges an open run's ``epoch``
        event carries; the run adds the STP/ANTT and throughput-memo
        gauges no event carries.  Its profiler times host phases:
        ``epoch`` with ``epoch.advance`` / ``epoch.policy`` /
        ``epoch.lifecycle`` children, and ``run.solo_ipc`` for the
        Equation 3/4 denominator (apart from the epoch-counter
        :class:`~repro.core.profiler.EpochProfiler` that profiling
        policies keep as ``system.policy.profiler``).  The default,
        :data:`repro.obs.OFF`, costs nothing.

        ``policy`` is the composed :class:`PartitionPolicy` (default: the
        even static baseline).  ``arrivals`` switches the runner into
        open-system mode; ``max_slots`` caps concurrent residency
        (default: how many minimum slices the GPU can host).

        ``kernel_backend`` selects the hot-loop implementation:
        ``"scalar"`` (the pure-python golden oracle, and the default) or
        ``"numpy"`` (the opt-in batched fast path in
        :mod:`repro.fastpath`, byte-identical to the oracle).  ``None``
        defers to :func:`resolve_kernel_backend` (process override, then
        ``REPRO_KERNEL_BACKEND``, then ``"scalar"``)."""
        if policy is None:
            from repro.policies.base import PartitionPolicy

            policy = PartitionPolicy()
        self.policy = policy
        self.policy_name = policy.policy_name
        #: The batched epoch kernel (``None`` under the scalar backend).
        #: Must exist before any policy hook can touch the partition.
        self._fast = None
        self.kernel_backend = resolve_kernel_backend(kernel_backend)
        self._open = arrivals is not None and len(arrivals) > 0
        if not applications and not self._open:
            raise ConfigError("need at least one application")
        config = config if config is not None else GPUConfig()
        config.validate()
        self.config = config
        self.perf = PerformanceModel(config)
        self.epoch_cycles = epoch_cycles
        self.energy_model = energy_model
        self.total_memory_bytes = total_memory_bytes
        self.fault_model = (
            FaultOverheadModel(config) if total_memory_bytes is not None else None
        )
        self.obs = obs
        if obs.on:
            # Resolve children once; the per-epoch hot path then touches
            # plain objects (or the shared no-op metric).
            from repro.telemetry import names as _names

            obs.declare("epoch", "arrival", "admission", "departure")
            metric = obs.metric
            self._m_stp = metric(_names.policy_stp)
            self._m_antt = metric(_names.policy_antt)
            _memo_lookups = metric(_names.perf_memo_lookups_total)
            self._m_memo_hit = _memo_lookups.labels(outcome="hit")
            self._m_memo_miss = _memo_lookups.labels(outcome="miss")
            self._m_memo_entries = metric(_names.perf_memo_entries)
        self._memo_hits_seen = 0
        self._memo_misses_seen = 0
        #: Cycle stamp for trace records emitted outside :meth:`_step`
        #: (e.g. QoS enforcement during construction happens at cycle 0).
        self._trace_now = 0
        self.repartitions = 0
        self.policy.bind(self)
        self.partition = self.policy.initial_partition(applications)
        self.apps: Dict[int, AppState] = {}
        for app in applications:
            self.apps[app.app_id] = AppState(
                app=app, allocation=self.partition.allocation(app.app_id)
            )
        # Open-system state.
        self.arrivals = arrivals
        self._pending: List[ArrivalEvent] = list(arrivals) if arrivals else []
        self._wait_queue: List[ArrivalEvent] = []
        self.departed: Dict[int, AppState] = {}
        self._admitted_order: List[AppState] = list(self.apps.values())
        self.arrivals_seen = 0
        self.admissions = 0
        self.departures = 0
        if max_slots is None:
            # How many minimum slices (4 SMs / 4 channels, the
            # PartitionState floors) the physical GPU can host: 8 for the
            # Table 1 machine (32 channels / 4).
            max_slots = min(config.num_sms // 4, config.num_channels // 4)
        if max_slots < len(self.apps):
            raise ConfigError(
                f"max_slots={max_slots} below the {len(self.apps)} initial "
                "applications"
            )
        self.max_slots = max_slots
        self.policy.on_start()
        if self.kernel_backend == "numpy":
            from repro.fastpath.epoch import FastEpochKernel

            self._fast = FastEpochKernel(self)

    # ------------------------------------------------------------------
    # Evaluation helpers for policies
    # ------------------------------------------------------------------
    def slice_throughput(self, state: AppState) -> SliceThroughput:
        """Evaluate the app's current kernel on its isolated slice (the
        default policy behaviour; policies layer contention or profiling
        on top)."""
        return self.perf.throughput(
            state.app.current_kernel,
            state.allocation.sms,
            state.allocation.channels,
        )

    def capacity_factor(self, state: AppState, throughput: SliceThroughput) -> float:
        """Far-fault throughput factor when oversubscription is modelled."""
        if self.fault_model is None:
            return 1.0
        capacity = self.fault_model.capacity_for_channels(
            state.allocation.channels, self.total_memory_bytes
        )
        charge = self.fault_model.charge(
            state.app.footprint_bytes, capacity, throughput.dram_bytes_per_cycle
        )
        return charge.throughput_factor

    # ------------------------------------------------------------------
    # Epoch step
    # ------------------------------------------------------------------
    def _step(self, epoch_index: int, span: int) -> EpochResult:
        if self._fast is not None:
            return self._fast.step(epoch_index, span)
        return self._step_scalar(epoch_index, span)

    def _step_scalar(self, epoch_index: int, span: int) -> EpochResult:
        """The golden-oracle epoch step (``kernel_backend="scalar"``)."""
        obs = self.obs
        on = obs.on
        if on:
            obs.begin("epoch")
            obs.begin("epoch.advance")
        instructions: Dict[int, int] = {}
        migration_cycles = 0.0
        throughput_for = self.policy.throughput_for
        for state in self.apps.values():
            throughput = throughput_for(state)
            lost = 0.0
            consumed: List[PenaltyCharge] = []
            for charge in state.penalties:
                take_window = min(charge.window_cycles, span)
                lost += take_window * charge.factor
                if charge.counts_as_migration:
                    migration_cycles = max(migration_cycles, take_window)
                if charge.window_cycles > span:
                    consumed.append(
                        PenaltyCharge(
                            charge.window_cycles - span,
                            charge.factor,
                            charge.counts_as_migration,
                        )
                    )
            state.penalties = consumed
            effective = max(0.0, span - lost)
            capacity_factor = self.capacity_factor(state, throughput)
            retired = int(throughput.ipc * effective * capacity_factor)
            state.app.advance(retired)
            state.instructions += retired
            state.dram_bytes += throughput.dram_bytes_per_cycle * effective
            instructions[state.app_id] = retired

        result = EpochResult(
            index=epoch_index,
            start_cycle=epoch_index * self.epoch_cycles,
            end_cycle=epoch_index * self.epoch_cycles + span,
            instructions=instructions,
            migration_cycles=int(migration_cycles),
            repartitioned=False,
        )
        before = self.repartitions
        self._trace_now = result.end_cycle
        if on:
            obs.end("epoch.advance")
            obs.begin("epoch.policy")
        if self.apps:
            self.policy.on_epoch_end(epoch_index, span)
        if on:
            obs.end("epoch.policy")
        if self._open:
            with obs.span("epoch.lifecycle"):
                self._process_boundary(result.end_cycle)
        result.repartitioned = self.repartitions > before
        # Snapshot the (possibly just-updated) partition for dynamics
        # analysis: {app_id: (sms, channels)} at the end of this epoch.
        result.detail["allocations"] = {
            app_id: (state.allocation.sms, state.allocation.channels)
            for app_id, state in self.apps.items()
        }
        if on:
            self._epoch_event(result, span, instructions)
            obs.end("epoch")
        return result

    def _epoch_event(self, result: EpochResult, span: int,
                     instructions: Dict[int, int]) -> None:
        """The ``epoch`` event, then the memo gauges and the epoch
        observers (shared by both kernel backends; called only when the
        handle is on).  An open run's event carries the queue state the
        boundary's lifecycle left."""
        queue = ({"wait": len(self._wait_queue), "resident": len(self.apps)}
                 if self._open else {})
        self.obs.emit(
            "epoch", f"epoch[{result.index}]",
            time=result.start_cycle, duration=span,
            instructions=sum(instructions.values()),
            migration_cycles=result.migration_cycles,
            repartitioned=result.repartitioned,
            **queue,
        )
        self._flush_memo()
        self.obs.epoch_boundary(result.index, result.end_cycle)

    def _flush_memo(self) -> None:
        """Count the throughput-memo lookups since the last flush."""
        perf = self.perf
        if perf.memo_hits != self._memo_hits_seen:
            self._m_memo_hit.inc(perf.memo_hits - self._memo_hits_seen)
            self._memo_hits_seen = perf.memo_hits
        if perf.memo_misses != self._memo_misses_seen:
            self._m_memo_miss.inc(perf.memo_misses - self._memo_misses_seen)
            self._memo_misses_seen = perf.memo_misses
        self._m_memo_entries.set(perf.memo_size)

    # ------------------------------------------------------------------
    # Open-system lifecycle
    # ------------------------------------------------------------------
    def _process_boundary(self, now: int) -> None:
        """Departures, then arrivals, then admissions — in that order, so
        a slot freed this boundary serves a job queued this boundary."""
        obs = self.obs
        for app_id in [a for a, s in self.apps.items() if s.retired_budget]:
            state = self.apps.pop(app_id)
            state.depart_cycle = now
            state.penalties = []
            self.departed[app_id] = state
            self.departures += 1
            if obs.on:
                obs.emit(
                    "departure", state.app.name, time=now,
                    app_id=app_id, instructions=state.instructions,
                    resident_cycles=now - state.admit_cycle,
                )
            self.policy.on_app_departure(state)
        while self._pending and self._pending[0].cycle <= now:
            event = self._pending.pop(0)
            self._wait_queue.append(event)
            self.arrivals_seen += 1
            if obs.on:
                obs.emit(
                    "arrival", event.app.name, time=event.cycle,
                    app_id=event.app.app_id,
                )
        while self._wait_queue and len(self.apps) < self.max_slots:
            event = self._wait_queue.pop(0)
            state = AppState(
                app=event.app,
                allocation=ResourceAllocation(0, 0),
                arrival_cycle=event.cycle,
                admit_cycle=now,
                budget_instructions=event.budget_instructions,
            )
            self.apps[event.app.app_id] = state
            self._admitted_order.append(state)
            self.admissions += 1
            if obs.on:
                obs.emit(
                    "admission", event.app.name, time=now,
                    app_id=event.app.app_id,
                    queueing_delay=now - event.cycle,
                )
            self.policy.on_app_arrival(state)

    def _drained(self, _result: EpochResult) -> bool:
        """Early exit for open runs: nothing resident, queued or pending."""
        return not self.apps and not self._wait_queue and not self._pending

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, total_cycles: int = 25_000_000,
            mix_name: Optional[str] = None):
        """Simulate for ``total_cycles`` GPU cycles (the paper's horizon
        is 25M).  Closed runs (no arrival schedule) return a
        :class:`SystemResult`; open runs return an
        :class:`OpenSystemResult`."""
        if self._open:
            return self._run_open(total_cycles, mix_name)
        runner = EpochRunner(self.epoch_cycles)
        if self._fast is not None:
            epochs = self._fast.drive(runner, total_cycles)
        else:
            epochs = runner.run(self._step_scalar, total_cycles)
        alone = self.alone_ipcs(total_cycles)
        runs = []
        for state in self.apps.values():
            ipc = state.instructions / total_cycles
            runs.append(
                AppRun(
                    app_id=state.app_id,
                    name=state.app.name,
                    ipc=ipc,
                    ipc_alone=alone[state.app_id],
                )
            )
        result = SystemResult(
            policy=self.policy_name,
            mix_name=mix_name or "_".join(s.app.name for s in self.apps.values()),
            runs=runs,
            epochs=epochs,
            total_cycles=total_cycles,
            energy=self._energy(total_cycles, self.apps.values()),
            repartitions=self.repartitions,
        )
        self._finish_metrics(result)
        return result

    def _run_open(self, total_cycles: int,
                  mix_name: Optional[str]) -> OpenSystemResult:
        runner = EpochRunner(self.epoch_cycles)
        step = self._fast.step if self._fast is not None else self._step_scalar
        epochs = runner.run(step, total_cycles, stop_when=self._drained)
        runs = []
        for state in self._admitted_order:
            if state.depart_cycle is None and state.admit_cycle >= total_cycles:
                # Admitted exactly at the horizon: never executed.
                continue
            interval = (
                (state.depart_cycle if state.depart_cycle is not None
                 else total_cycles) - state.admit_cycle
            )
            runs.append(
                IntervalRun(
                    app_id=state.app_id,
                    name=state.app.name,
                    instructions=state.instructions,
                    ipc_alone=self._solo_ipc(state.app, interval),
                    arrival_cycle=state.arrival_cycle,
                    admit_cycle=state.admit_cycle,
                    depart_cycle=state.depart_cycle,
                )
            )
        all_states = list(self._admitted_order)
        result = OpenSystemResult(
            policy=self.policy_name,
            mix_name=mix_name or "open",
            runs=runs,
            epochs=epochs,
            total_cycles=total_cycles,
            energy=self._energy(total_cycles, all_states),
            repartitions=self.repartitions,
            arrivals=self.arrivals_seen,
            admissions=self.admissions,
            departures=self.departures,
        )
        self._finish_metrics(result)
        return result

    def _finish_metrics(self, result) -> None:
        """End-of-run summary gauges (per-policy STP/ANTT)."""
        if not self.obs.on:
            return
        # Flush memo-lookup deltas accrued outside the epoch loop (the
        # solo-IPC denominators run after the last epoch).
        self._flush_memo()
        if not result.runs:
            return
        self._m_stp.labels(policy=self.policy_name).set(result.stp)
        self._m_antt.labels(policy=self.policy_name).set(result.antt)

    def _energy(self, total_cycles: int,
                states) -> Optional[EnergyBreakdown]:
        if self.energy_model is None:
            return None
        total_instr = sum(s.instructions for s in states)
        total_dram = sum(s.dram_bytes for s in states)
        total_migrated = sum(s.migrated_bytes for s in states)
        return self.energy_model.energy(
            cycles=total_cycles,
            instructions=total_instr,
            dram_bytes=total_dram,
            migrated_bytes=total_migrated,
        )

    # ------------------------------------------------------------------
    # Solo-run denominator (memoized per process)
    # ------------------------------------------------------------------
    def alone_ipcs(self, total_cycles: int) -> Dict[int, float]:
        """IPC of each application running alone on the whole GPU for the
        same horizon (the Equation 3/4 denominator)."""
        return {
            state.app_id: self._solo_ipc(state.app, total_cycles)
            for state in self.apps.values()
        }

    @staticmethod
    def _curve_key(curve) -> Optional[Tuple]:
        if curve is None:
            return None
        return (
            curve.reference_capacity, curve.reference_hit_rate,
            curve.working_set, curve.peak_hit_rate, curve.alpha,
        )

    def _solo_cache_key(self, app: Application, total_cycles: int) -> Tuple:
        kernels = tuple(
            (
                k.name, k.ipc_per_sm, k.apki_llc, k.llc_hit_rate,
                k.footprint_bytes, k.instructions,
                self._curve_key(k.hit_curve),
            )
            for k in app.kernels
        )
        return (
            app.name, kernels, self.config, total_cycles,
            self.epoch_cycles, self.total_memory_bytes,
        )

    def _solo_ipc(self, app: Application, total_cycles: int) -> float:
        key = self._solo_cache_key(app, total_cycles)
        cached = _SOLO_IPC_CACHE.get(key)
        if cached is not None:
            return cached
        self.obs.begin("run.solo_ipc")
        if self._fast is not None:
            instructions = self._fast.solo_instructions(app, total_cycles)
        else:
            solo = app.clone()
            instructions = 0
            elapsed = 0
            while elapsed < total_cycles:
                span = min(self.epoch_cycles, total_cycles - elapsed)
                t = self.perf.throughput(
                    solo.current_kernel, self.config.num_sms,
                    self.config.num_channels
                )
                factor = 1.0
                if self.fault_model is not None:
                    charge = self.fault_model.charge(
                        solo.footprint_bytes,
                        float(self.total_memory_bytes),
                        t.dram_bytes_per_cycle,
                    )
                    factor = charge.throughput_factor
                retired = int(t.ipc * span * factor)
                solo.advance(retired)
                instructions += retired
                elapsed += span
        if instructions <= 0:
            raise SimulationError(
                f"{app.name}: solo run retired no instructions"
            )
        ipc = instructions / total_cycles
        _SOLO_IPC_CACHE[key] = ipc
        self.obs.end("run.solo_ipc")
        return ipc

    # ------------------------------------------------------------------
    # Helpers for policies
    # ------------------------------------------------------------------
    def set_allocation(self, app_id: int,
                       allocation: ResourceAllocation) -> ResourceAllocation:
        """Update one slice; returns the previous allocation."""
        previous = self.apps[app_id].allocation
        self.partition.assign(app_id, allocation)
        self.apps[app_id].allocation = allocation
        if self._fast is not None:
            self._fast.partition_changed()
        return previous

    def apply_partition(self, allocations: Mapping[int, ResourceAllocation]) -> None:
        self.partition.assign_all(dict(allocations))
        for app_id, allocation in allocations.items():
            self.apps[app_id].allocation = allocation
        if self._fast is not None:
            self._fast.partition_changed()

    def replace_partition(self, partition: PartitionState) -> None:
        """Swap in a freshly constructed partition (MPS membership
        changes rebuild their nominal budget); slices must already be
        assigned for every resident."""
        self.partition = partition
        for app_id, state in self.apps.items():
            state.allocation = partition.allocation(app_id)
        if self._fast is not None:
            self._fast.partition_changed()

    def add_penalty(self, app_id: int, window_cycles: float, factor: float,
                    counts_as_migration: bool = True) -> None:
        if window_cycles > 0 and factor > 0:
            self.apps[app_id].penalties.append(
                PenaltyCharge(window_cycles, factor, counts_as_migration)
            )
