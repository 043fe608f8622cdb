"""The UGPU policy: demand-aware repartitioning plus PageMove costing.

Epoch flow (Sections 3.3 and 4):

1. Applications execute on their current slices; hardware counters fill.
2. At the boundary the profiler produces per-app
   :class:`~repro.core.profiler.AppProfile` records and the demand-aware
   partitioner computes a (possibly) new partition.  The fixed-function
   unit's latency (<= 3388 cycles) is charged.
3. If the partition changed, SMs drain or switch and memory channels are
   reallocated.  Page migration is costed by mode:

   * ``PPMM`` (PageMove): pages in lost channels move eagerly over idle
     TSVs; the gaining application rebalances lazily (demand faults plus a
     background trickle), so its penalty is small and overlapped.
   * ``SOFTWARE`` (UGPU-Soft): same page sets, but copies monopolize the
     involved channels' data buses.
   * ``TRADITIONAL`` (UGPU-Ori): no PageMove mapping discipline — the
     gaining side must also be populated eagerly through the GPU, and the
     copies pollute the NoC/LLC, slowing every co-executing application.

4. Migration windows longer than the per-epoch budget spill into later
   epochs (the penalty carry-over in :class:`~repro.core.system`).

``offline=True`` models UGPU-offline: the partition is computed from the
applications' known profiles before cycle zero, pages are allocated into
the right channels from the start, and no reallocation ever happens —
the paper's zero-overhead ideal.

Open-system membership changes (arrivals/departures) recompute the
partition immediately: the newcomer is seeded with an even slice, the
partitioner runs on the last observed profiles (static profiles for apps
with no observations yet — the counters are read-and-reset, so arrival
boundaries cannot re-read them), and the full reallocation cost —
algorithm latency, flush, SM handover, page migration — is charged
through the same machinery as an epoch-boundary repartition.  An
arriving app's previous allocation is (0, 0): it pays the spin-up for
every SM and channel it receives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.hardware_cost import AlgorithmCostModel
from repro.core.partitioner import DemandAwarePartitioner, PartitionDecision
from repro.core.profiler import AppProfile, EpochProfiler
from repro.core.qos import QoSTarget, estimated_np, meets_target
from repro.core.reallocation import TB_DURATION_CYCLES, SMReallocator
from repro.core.slices import ResourceAllocation
from repro.pagemove.cost import MigrationCostModel, MigrationMode
from repro.policies.base import PartitionPolicy, even_allocations

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import AppState

#: Share of a PageMove rebalance deferred to demand faults.
LAZY_FRACTION = 0.5
#: Share of the deferred copies' bandwidth penalty that execution still
#: feels: the rest overlaps over idle TSVs.
LAZY_OVERLAP = 0.5


class UGPUPolicy(PartitionPolicy):
    """Dynamically constructed unbalanced GPU slices."""

    policy_name = "UGPU"

    def __init__(
        self,
        mode: MigrationMode = MigrationMode.PPMM,
        offline: bool = False,
        qos: Optional[QoSTarget] = None,
        sm_step: int = 4,
        hysteresis: float = 0.0,
    ) -> None:
        """``hysteresis``: minimum estimated relative STP gain required to
        actually apply a new partition.  The paper notes that for
        workloads whose epoch-level behaviour barely changes,
        "reallocation overhead could outweigh its benefits" (Section
        3.3); a small hysteresis (e.g. 0.03) suppresses such churn.  The
        default 0 reproduces the paper's always-apply behaviour."""
        self.mode = mode
        self.offline = offline
        self.qos = qos
        self._sm_step = sm_step
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.hysteresis = hysteresis
        self.suppressed_repartitions = 0
        #: Last boundary's profiles, kept for arrival/departure
        #: repartitions: counter snapshots are read-and-reset, so they
        #: cannot be re-read mid-epoch.
        self._last_profiles: Dict[int, AppProfile] = {}
        #: Throughputs recorded by :meth:`observe_throughput` during the
        #: epoch, consumed (per app) at the next boundary.
        self._pending_throughput: Dict[int, "SliceThroughput"] = {}
        #: Steady-state short-circuit: signatures of boundaries whose
        #: partitioner run produced no change.  A signature captures the
        #: full partitioner input (app order, profile values, allocation
        #: values), so a learned no-change signature stays valid for the
        #: run's lifetime.  See :meth:`on_epoch_end`.
        self._steady_signatures: set = set()
        if offline:
            self.policy_name = "UGPU-offline"
        elif mode is not MigrationMode.PPMM:
            self.policy_name = f"UGPU-{mode.value}"

    # ------------------------------------------------------------------
    # Lifecycle wiring
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        runner = self.runner
        config = runner.config
        self.profiler = EpochProfiler(config)
        for state in runner.apps.values():
            self._track(state)
        self.partitioner = DemandAwarePartitioner(
            runner.partition,
            sm_step=self._sm_step,
            gpu_config=config,
            memory_capacity_bytes=runner.total_memory_bytes,
        )
        self.algorithm_cost = AlgorithmCostModel()
        self.sm_reallocator = SMReallocator(config)
        self.migration_cost = MigrationCostModel(config.hbm)
        self.page_size = self.migration_cost.mapping.page_size
        #: Per-reallocation cap on migration work: the driver's migration
        #: queue is bounded, so one reallocation occupies at most this many
        #: cycles.  PageMove drains its (cheap) migrations within an epoch;
        #: the software paths string their copies out over several epochs,
        #: which is exactly why UGPU-Ori loses to BP (Section 6.2).
        if self.mode is MigrationMode.PPMM:
            # PageMove's migration queue drains ~12.5K pages (50 MB) per
            # reallocation event; anything beyond trickles in on later
            # demand faults.
            self.migration_budget_cycles = 0.2 * runner.epoch_cycles
        else:
            # The software paths share the same driver migration queue;
            # their (much) higher per-page cost is what separates
            # UGPU-Soft from UGPU-Ori, not the queue depth.
            self.migration_budget_cycles = 2.0 * runner.epoch_cycles
        if self.offline and runner.apps:
            self._apply_offline_partition()
        if self.qos is not None and not self.offline and runner.apps:
            # The high-priority application is known upfront (the paper's
            # QoS scenario identifies it before launch), so its slice is
            # sized for the target from cycle zero; only the remaining
            # resources are repartitioned dynamically.
            initial = PartitionDecision(
                allocations={a: s.allocation for a, s in runner.apps.items()},
                iterations=0,
            )
            initial = self._enforce_qos(initial, self._static_profiles())
            runner.apply_partition(initial.allocations)

    def _track(self, state: "AppState") -> None:
        self.profiler.track(
            state.app_id,
            ipc_max_per_sm=max(k.ipc_per_sm for k in state.app.kernels),
            footprint_bytes=state.app.footprint_bytes,
        )

    # ------------------------------------------------------------------
    # Offline mode
    # ------------------------------------------------------------------
    def _static_profiles(self) -> Dict[int, AppProfile]:
        """Profiles from the applications' known (offline) parameters."""
        return {
            state.app_id: self._static_profile(state)
            for state in self.runner.apps.values()
        }

    def _static_profile(self, state: "AppState") -> AppProfile:
        kernel = state.app.current_kernel
        return AppProfile(
            app_id=state.app_id,
            ipc_max_per_sm=kernel.ipc_per_sm,
            apki_llc=kernel.apki_llc,
            llc_hit_rate=kernel.llc_hit_rate,
            bw_demand_per_sm=self.profiler.bw_demand_per_sm(
                kernel.ipc_per_sm, kernel.apki_llc
            ),
            bw_supply_per_mc=self.profiler.bw_supply_per_mc(kernel.llc_hit_rate),
            footprint_bytes=state.app.footprint_bytes,
        )

    def _apply_offline_partition(self) -> None:
        decision = self.partitioner.compute(self._static_profiles())
        decision = self._enforce_qos(decision, self._static_profiles())
        self.runner.apply_partition(decision.allocations)

    # ------------------------------------------------------------------
    # Epoch hook
    # ------------------------------------------------------------------
    def observe_throughput(self, state: "AppState", throughput) -> None:
        # Record only; the counter feed happens at the boundary through
        # the profiler's fused observe-and-profile pipeline.  Banks are
        # per-app, so deferring one app's counting past another's has no
        # observable effect on any counter sequence.
        self._pending_throughput[state.app_id] = throughput

    def on_epoch_end(self, epoch_index: int, span: int) -> None:
        runner = self.runner
        obs = runner.obs
        on = obs.on
        if on:
            obs.begin("ugpu.profile")
        profiler = self.profiler
        pending = self._pending_throughput
        epoch_cycles = runner.epoch_cycles
        profiles = {}
        for app_id in runner.apps:
            throughput = pending.get(app_id)
            if throughput is not None:
                profiles[app_id] = profiler.observe_and_profile(
                    app_id, throughput, epoch_cycles
                )
            else:
                profiles[app_id] = profiler.profile(app_id)
        self._last_profiles = profiles
        if on:
            obs.end("ugpu.profile")
        if self.offline:
            return  # partition fixed before execution
        signature = None
        if self.qos is None:
            # The partitioner is deterministic and pure in (app order,
            # profile values, current allocation values); a signature
            # seen at an earlier no-change boundary would reproduce the
            # same no-change decision, so skip the recompute.  QoS runs
            # keep the full path: _enforce_qos may emit per-epoch traces
            # even on no-change boundaries, and those must keep firing.
            apps = runner.apps
            signature = tuple(
                (app_id, profile, apps[app_id].allocation)
                for app_id, profile in profiles.items()
            )
            if signature in self._steady_signatures:
                return
        previous = {a: s.allocation for a, s in runner.apps.items()}
        if on:
            obs.begin("ugpu.partition")
        decision = self.partitioner.compute(profiles)
        decision = self._enforce_qos(decision, profiles)
        if on:
            obs.end("ugpu.partition")
        decision.latency_cycles = self.algorithm_cost.total_cycles(
            decision.iterations, num_apps=len(runner.apps)
        )
        if not decision.changed_from(previous):
            if signature is not None:
                if len(self._steady_signatures) >= 256:
                    self._steady_signatures.clear()
                self._steady_signatures.add(signature)
            return
        if self.hysteresis > 0 and not self._worth_applying(
            previous, decision.allocations, profiles
        ):
            self.suppressed_repartitions += 1
            if on:
                obs.emit(
                    "realloc", "suppress", time=runner._trace_now,
                    epoch=epoch_index, hysteresis=self.hysteresis,
                )
            return
        runner.apply_partition(decision.allocations)
        runner.repartitions += 1
        if on:
            obs.emit(
                "realloc", "apply", time=runner._trace_now,
                epoch=epoch_index,
                iterations=decision.iterations,
                latency_cycles=decision.latency_cycles,
                allocations={
                    app_id: [alloc.sms, alloc.channels]
                    for app_id, alloc in decision.allocations.items()
                },
            )
        with obs.span("ugpu.charge"):
            self._charge_reallocation(previous, decision, profiles)

    def _worth_applying(self, previous, proposed, profiles) -> bool:
        """Estimated relative STP gain must clear the hysteresis bar."""
        from repro.core.qos import estimated_ipc

        config = self.runner.config
        old_stp = new_stp = 0.0
        for app_id, profile in profiles.items():
            alone = estimated_ipc(
                profile,
                ResourceAllocation(config.num_sms, config.num_channels),
                config,
            )
            if alone <= 0:
                continue
            old_stp += estimated_ipc(profile, previous[app_id], config) / alone
            new_stp += estimated_ipc(profile, proposed[app_id], config) / alone
        if old_stp <= 0:
            return True
        return (new_stp - old_stp) / old_stp >= self.hysteresis

    # ------------------------------------------------------------------
    # Open-system membership changes
    # ------------------------------------------------------------------
    def on_app_arrival(self, state: "AppState") -> None:
        if not self.profiler.is_tracked(state.app_id):
            self._track(state)
        self._membership_repartition()

    def on_app_departure(self, state: "AppState") -> None:
        self._last_profiles.pop(state.app_id, None)
        self._membership_repartition()

    def _membership_repartition(self) -> None:
        """Recompute the partition for the new resident set and charge the
        full reallocation cost.  Hysteresis never suppresses membership
        repartitions — a newcomer has no slice at all without one."""
        runner = self.runner
        ids = list(runner.apps)
        if not ids:
            runner.partition.assign_all({})
            return
        previous = {a: s.allocation for a, s in runner.apps.items()}
        # Seed every resident (including the newcomer) with an even slice
        # so the partitioner starts from a feasible membership-correct
        # state; the demand-aware compute then reshapes it.
        runner.apply_partition(even_allocations(ids, runner.partition))
        if self.offline:
            profiles = self._static_profiles()
        else:
            profiles = {
                app_id: self._profile_or_static(app_id) for app_id in ids
            }
        decision = self.partitioner.compute(profiles)
        decision = self._enforce_qos(decision, profiles)
        decision.latency_cycles = self.algorithm_cost.total_cycles(
            decision.iterations, num_apps=len(ids)
        )
        runner.apply_partition(decision.allocations)
        runner.repartitions += 1
        obs = runner.obs
        if obs.on:
            obs.emit(
                "realloc", "membership", time=runner._trace_now,
                iterations=decision.iterations,
                latency_cycles=decision.latency_cycles,
                allocations={
                    app_id: [alloc.sms, alloc.channels]
                    for app_id, alloc in decision.allocations.items()
                },
            )
        if self.offline:
            # Offline mode pre-places pages for the partition it knows;
            # a membership change still costs the algorithm latency but
            # no migration (the ideal keeps its zero-overhead story).
            return
        prev_full = {
            app_id: previous.get(app_id, ResourceAllocation(0, 0))
            for app_id in ids
        }
        self._charge_reallocation(prev_full, decision, profiles)

    def _profile_or_static(self, app_id: int) -> AppProfile:
        profile = self._last_profiles.get(app_id)
        if profile is not None:
            return profile
        return self._static_profile(self.runner.apps[app_id])

    # ------------------------------------------------------------------
    # QoS enforcement
    # ------------------------------------------------------------------
    def _enforce_qos(self, decision: PartitionDecision,
                     profiles: Dict[int, AppProfile]) -> PartitionDecision:
        """Grow the high-priority slice until its estimated NP clears the
        target, pulling resources back from the other slices."""
        runner = self.runner
        if self.qos is None or self.qos.app_id not in decision.allocations:
            return decision
        config = runner.config
        # Enforce against a padded floor: the counter-based NP estimate is
        # optimistic about hit rates at small LLC allocations and about a
        # multi-kernel app's heavier phases, so provision a ~6% guard band.
        target = QoSTarget(
            self.qos.app_id, min(1.0, self.qos.target_np * 1.06)
        )
        allocations = dict(decision.allocations)
        profile = profiles[target.app_id]
        others = [a for a in allocations if a != target.app_id]
        if not others:
            return decision

        def satisfied() -> bool:
            return meets_target(
                profile, allocations[target.app_id], config, target
            )

        def np_now() -> float:
            return estimated_np(profile, allocations[target.app_id], config)

        guard = 0
        while not satisfied() and guard < 64:
            guard += 1
            moved = False
            for resource, step, minimum in (
                ("sms", self.partitioner.sm_step, runner.partition.min_sms),
                ("channels", self.partitioner.mc_step,
                 runner.partition.min_channels),
            ):
                donor = max(others, key=lambda a: getattr(allocations[a], resource))
                if getattr(allocations[donor], resource) - step < minimum:
                    continue
                d_sms = step if resource == "sms" else 0
                d_channels = step if resource == "channels" else 0
                before = np_now()
                allocations[target.app_id] = allocations[target.app_id].move(
                    d_sms=d_sms, d_channels=d_channels
                )
                # Only keep the transfer if it actually raises the
                # high-priority app's progress — a compute-bound app must
                # not hoard channels the low-priority app could use.
                if np_now() <= before + 1e-9:
                    allocations[target.app_id] = allocations[target.app_id].move(
                        d_sms=-d_sms, d_channels=-d_channels
                    )
                    continue
                allocations[donor] = allocations[donor].move(
                    d_sms=-d_sms, d_channels=-d_channels
                )
                moved = True
                if satisfied():
                    break
            if not moved:
                break
        before_alloc = decision.allocations[target.app_id]
        after_alloc = allocations[target.app_id]
        obs = runner.obs
        if after_alloc != before_alloc and obs.on:
            obs.emit(
                "qos", "enforce", time=runner._trace_now,
                app_id=target.app_id,
                target_np=self.qos.target_np,
                estimated_np=np_now(),
                granted_sms=after_alloc.sms - before_alloc.sms,
                granted_channels=after_alloc.channels - before_alloc.channels,
            )
        decision.allocations = allocations
        return decision

    # ------------------------------------------------------------------
    # Reallocation costing
    # ------------------------------------------------------------------
    def _resident_pages(self, state: "AppState") -> int:
        """Pages the application has touched so far.

        Bounded by both the footprint and the DRAM traffic the app has
        generated (a page cannot become resident without at least one line
        of DRAM traffic), so cache-resident compute-bound applications
        only ever migrate the small page set they actually populated.
        """
        footprint_pages = state.app.footprint_bytes // self.page_size
        touched = int(state.dram_bytes // self.page_size) + 1
        return min(footprint_pages, touched)

    def _charge_reallocation(
        self,
        previous: Dict[int, ResourceAllocation],
        decision: PartitionDecision,
        profiles: Dict[int, AppProfile],
    ) -> None:
        runner = self.runner
        obs = runner.obs
        algorithm_window = float(decision.latency_cycles)
        for app_id, state in runner.apps.items():
            old = previous[app_id]
            new = decision.allocations[app_id]
            profile = profiles[app_id]
            sensitivity = min(1.0, profile.demand_supply_ratio(new.sms, new.channels))

            # Algorithm latency stalls the reconfiguration, not execution,
            # but we charge it conservatively to everyone.
            runner.add_penalty(app_id, algorithm_window, 1.0)

            # Cache/TLB flush and refill (Section 4.4's coherence step).
            runner.add_penalty(
                app_id, self.membership_flush_window_cycles,
                self.membership_flush_factor,
            )

            # SM handover: the moved SMs are unavailable for the drain or
            # switch window.
            moved_sms = abs(new.sms - old.sms)
            if moved_sms and new.sms > 0:
                charge = self.sm_reallocator.cost(
                    moved_sms, TB_DURATION_CYCLES, runner.epoch_cycles,
                    channels_available=max(1, new.channels),
                )
                runner.add_penalty(
                    app_id, charge.cycles, min(1.0, moved_sms / new.sms)
                )
                state.migrated_bytes += charge.dram_bytes
                if obs.on:
                    obs.emit(
                        "realloc", "sm-handover", time=runner._trace_now,
                        duration=charge.cycles, app_id=app_id,
                        policy=charge.policy.value, sms=moved_sms,
                        dram_bytes=charge.dram_bytes,
                    )

            resident = self._resident_pages(state)
            lost = max(0, old.channels - new.channels)
            gained = max(0, new.channels - old.channels)
            budget_pages = int(
                self.migration_budget_cycles
                / self.migration_cost.page_cycles(self.mode)
            )

            if lost and old.channels > 0:
                eager_pages = min(resident * lost // old.channels, budget_pages)
                budget_pages -= eager_pages
                charge = self.migration_cost.charge(eager_pages, self.mode)
                runner.add_penalty(
                    app_id, charge.window_cycles,
                    charge.channel_bw_penalty * sensitivity,
                )
                state.migrated_bytes += charge.bytes_moved
                self._charge_global(charge)
                if obs.on:
                    obs.emit(
                        "migration", "eager", time=runner._trace_now,
                        duration=charge.window_cycles, app_id=app_id,
                        pages=eager_pages, mode=self.mode.value,
                        lost_channels=lost, bytes_moved=charge.bytes_moved,
                    )

            if gained and new.channels > 0:
                rebalance_pages = min(
                    resident * gained // new.channels, max(0, budget_pages)
                )
                if self.mode is MigrationMode.TRADITIONAL:
                    # No PageMove mapping discipline: the new channels must
                    # be populated eagerly through the GPU.
                    charge = self.migration_cost.charge(rebalance_pages, self.mode)
                    runner.add_penalty(
                        app_id, charge.window_cycles,
                        charge.channel_bw_penalty * sensitivity,
                    )
                else:
                    # PageMove defers part of the rebalance to demand
                    # faults (LAZY_FRACTION) and overlaps the copies with
                    # execution over idle TSVs (LAZY_OVERLAP).  The
                    # software path can do neither: its copies go through
                    # the channel data buses and must complete before the
                    # new channels carry balanced traffic.
                    if self.mode is MigrationMode.PPMM:
                        lazy_pages = int(rebalance_pages * LAZY_FRACTION)
                        overlap = LAZY_OVERLAP
                    else:
                        lazy_pages = rebalance_pages
                        overlap = 1.0
                    charge = self.migration_cost.charge(lazy_pages, self.mode)
                    runner.add_penalty(
                        app_id, charge.window_cycles,
                        charge.channel_bw_penalty * sensitivity * overlap,
                        counts_as_migration=self.mode is not MigrationMode.PPMM,
                    )
                state.migrated_bytes += charge.bytes_moved
                self._charge_global(charge)
                if obs.on:
                    obs.emit(
                        "migration", "rebalance", time=runner._trace_now,
                        duration=charge.window_cycles, app_id=app_id,
                        pages=rebalance_pages, mode=self.mode.value,
                        gained_channels=gained,
                        bytes_moved=charge.bytes_moved,
                    )

    def _charge_global(self, charge) -> None:
        """TRADITIONAL migrations pollute the NoC/LLC for everyone."""
        if charge.global_penalty > 0:
            for other_id in self.runner.apps:
                self.runner.add_penalty(
                    other_id, charge.window_cycles, charge.global_penalty
                )
