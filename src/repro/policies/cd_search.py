"""CD-Search combined with BP (paper Section 6.4).

CD-Search (Zhao et al., ICS 2018) classifies applications and moves SMs
between them at epoch boundaries.  As the paper notes, CD-Search alone has
no resource isolation, so the comparison point is *BP (CD-Search)*: the
GPU stays split into isolated BP instances, memory channels never move,
and only SMs are reallocated across the instance boundary based on the
same demand classification UGPU uses.

SM handover costs are charged exactly as in UGPU (drain/switch); there is
never any page migration.  On membership changes (open system) the BP
instances are recreated, so the base policy's even rebalance applies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hardware_cost import AlgorithmCostModel
from repro.core.partitioner import DemandAwarePartitioner
from repro.core.profiler import EpochProfiler
from repro.core.reallocation import TB_DURATION_CYCLES, SMReallocator
from repro.policies.base import PartitionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import AppState


class CDSearchPolicy(PartitionPolicy):
    """BP instances with SM-only reallocation."""

    policy_name = "BP(CD-Search)"

    def __init__(self, sm_step: int = 4) -> None:
        self._sm_step = sm_step
        #: Throughputs recorded by :meth:`observe_throughput` during the
        #: epoch, consumed (per app) at the next boundary.
        self._pending_throughput: dict = {}

    def on_start(self) -> None:
        runner = self.runner
        self.profiler = EpochProfiler(runner.config)
        for state in runner.apps.values():
            self.profiler.track(
                state.app_id,
                ipc_max_per_sm=max(k.ipc_per_sm for k in state.app.kernels),
                footprint_bytes=state.app.footprint_bytes,
            )
        self.partitioner = DemandAwarePartitioner(
            runner.partition, sm_step=self._sm_step, gpu_config=runner.config
        )
        self.sm_reallocator = SMReallocator(runner.config)
        self.algorithm_cost = AlgorithmCostModel()

    def observe_throughput(self, state: "AppState", throughput) -> None:
        # Record only; counters are fed at the boundary through the
        # profiler's fused observe-and-profile pipeline (banks are
        # per-app, so the deferral is unobservable).
        self._pending_throughput[state.app_id] = throughput

    def on_epoch_end(self, epoch_index: int, span: int) -> None:
        runner = self.runner
        pending = self._pending_throughput
        epoch_cycles = runner.epoch_cycles
        profiles = {}
        for a in runner.apps:
            throughput = pending.get(a)
            if throughput is not None:
                profiles[a] = self.profiler.observe_and_profile(
                    a, throughput, epoch_cycles
                )
            else:
                profiles[a] = self.profiler.profile(a)
        previous = {a: s.allocation for a, s in runner.apps.items()}
        decision = self.partitioner.compute(profiles)
        # CD-Search moves SMs only: restore every channel allocation.
        constrained = {
            app_id: decision.allocations[app_id].move(
                d_channels=previous[app_id].channels
                - decision.allocations[app_id].channels
            )
            for app_id in decision.allocations
        }
        if constrained == previous:
            return
        runner.apply_partition(constrained)
        runner.repartitions += 1
        latency = float(
            self.algorithm_cost.total_cycles(decision.iterations, len(runner.apps))
        )
        for app_id, state in runner.apps.items():
            runner.add_penalty(app_id, latency, 1.0)
            moved = abs(constrained[app_id].sms - previous[app_id].sms)
            if moved and constrained[app_id].sms > 0:
                charge = self.sm_reallocator.cost(
                    moved, TB_DURATION_CYCLES, runner.epoch_cycles,
                    channels_available=max(1, constrained[app_id].channels),
                )
                runner.add_penalty(
                    app_id, charge.cycles, moved / constrained[app_id].sms
                )
                state.migrated_bytes += charge.dram_bytes

    def on_app_arrival(self, state: "AppState") -> None:
        self._membership_change(state)

    def on_app_departure(self, state: "AppState") -> None:
        self._membership_change(state)

    def _membership_change(self, state: "AppState") -> None:
        if not self.profiler.is_tracked(state.app_id):
            self.profiler.track(
                state.app_id,
                ipc_max_per_sm=max(k.ipc_per_sm for k in state.app.kernels),
                footprint_bytes=state.app.footprint_bytes,
            )
        self.rebalance_even()
