"""Multi-Process Service policy (paper Sections 6.7 and 7).

MPS partitions SMs between applications but shares the entire memory
system: all LLC slices and memory channels serve every application's
traffic.  Two consequences the model captures:

* higher memory utilization — an application can momentarily draw more
  than a proportional bandwidth share when its co-runners are idle, which
  is why MPS sometimes beats UGPU's isolated slices in raw STP;
* contention — when aggregate demand exceeds supply, bandwidth is split
  in proportion to demand, so a memory-hungry co-runner can push a
  high-priority application below its QoS floor (Figure 16's violations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.slices import PartitionState, ResourceAllocation
from repro.errors import AllocationError
from repro.gpu.kernel import Application
from repro.gpu.performance import SliceThroughput
from repro.policies.base import PartitionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import AppState


class MPSPolicy(PartitionPolicy):
    """SM partitioning with a fully shared memory system."""

    policy_name = "MPS"

    #: The shared-memory contention factor depends on every resident's
    #: current kernel (see :attr:`PartitionPolicy.throughput_dependence`).
    throughput_dependence = "resident-set"

    def __init__(self, sm_assignment: Optional[Dict[int, int]] = None,
                 contention_overhead: float = 0.18) -> None:
        """``sm_assignment`` fixes per-app SM counts (the paper's offline
        analysis gives a high-priority app 60 SMs); default is an even
        split.  ``contention_overhead`` models row-buffer locality loss and
        scheduling interference between interleaved address streams
        sharing a channel (~18% of peak bandwidth)."""
        self._sm_assignment = sm_assignment
        if not 0.0 <= contention_overhead < 1.0:
            raise AllocationError("contention_overhead must be in [0, 1)")
        self.contention_overhead = contention_overhead

    def _nominal_partition(
        self, app_ids: Sequence[int]
    ) -> PartitionState:
        """Every slice records the full channel count: memory is shared.

        The PartitionState budget tracks isolation, so MPS keeps its own
        bookkeeping: SM counts are real, channel counts are nominal.
        """
        config = self.runner.config
        state = PartitionState(
            total_sms=config.num_sms,
            total_channels=config.num_channels * max(1, len(app_ids)),
        )
        even = config.num_sms // max(1, len(app_ids))
        for app_id in app_ids:
            sms = (
                self._sm_assignment.get(app_id, even)
                if self._sm_assignment
                else even
            )
            state.assign(
                app_id, ResourceAllocation(sms=sms, channels=config.num_channels)
            )
        return state

    def initial_partition(
        self, applications: Sequence[Application]
    ) -> PartitionState:
        return self._nominal_partition([a.app_id for a in applications])

    # ------------------------------------------------------------------
    # Membership changes: the nominal budget (channels x residents)
    # itself changes, so MPS is the one policy that must replace the
    # partition object rather than reassign slices within it.
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        runner = self.runner
        runner.replace_partition(self._nominal_partition(list(runner.apps)))
        if runner.apps:
            runner.repartitions += 1
            # SM re-split only: contexts restart on their new SM sets but
            # no pages move (memory was shared all along).
            self.charge_membership_flush(counts_as_migration=False)

    def on_app_arrival(self, state: "AppState") -> None:
        self._rebuild()

    def on_app_departure(self, state: "AppState") -> None:
        self._rebuild()

    # ------------------------------------------------------------------
    # Shared-memory contention
    # ------------------------------------------------------------------
    def _epoch_traffic(self) -> Dict[int, float]:
        """Each app's unconstrained DRAM traffic (bytes/cycle) when it can
        see the whole shared memory system."""
        runner = self.runner
        traffic = {}
        for state in runner.apps.values():
            solo = runner.perf.throughput(
                state.app.current_kernel,
                state.allocation.sms,
                runner.config.num_channels,
            )
            traffic[state.app_id] = solo.dram_bytes_per_cycle
        return traffic

    def throughput_for(self, state: "AppState") -> SliceThroughput:
        """Shared-memory contention: when aggregate DRAM traffic would
        exceed the (interference-degraded) supply, every request stream is
        throttled by the same oversubscription factor — the first-order
        behaviour of a shared FR-FCFS memory system.  A lightly-demanding
        co-runner therefore still slows down (its requests queue behind
        the flood), which is exactly how MPS breaks QoS in Figure 16."""
        runner = self.runner
        base = runner.perf.throughput(
            state.app.current_kernel,
            state.allocation.sms,
            runner.config.num_channels,
        )
        traffic = self._epoch_traffic()
        total = sum(traffic.values())
        supply = (
            runner.config.num_channels
            * runner.config.roofline.dram_bw_per_channel
            * (1.0 - self.contention_overhead)
        )
        if total <= supply:
            return base
        factor = supply / total
        return base._replace(
            ipc=base.ipc * factor,
            bandwidth_roof=base.bandwidth_roof * factor,
            dram_bytes_per_cycle=base.dram_bytes_per_cycle * factor,
        )
