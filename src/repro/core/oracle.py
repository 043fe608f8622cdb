"""Oracle partitioning: the exhaustive upper bound.

The paper argues exhaustive offline exploration is "impractical and
inefficient" for a runtime mechanism (Section 3.1) — but it is the right
yardstick for evaluating how much the cheap demand-aware algorithm leaves
on the table.  :class:`OraclePartitioner` sweeps every feasible partition
under the performance model:

* two applications: the full (SMs x channel-groups) grid, exactly;
* three or more: coordinate descent from the even split (iterated
  single-resource transfers, taking the best-improving move each round),
  which is exact in practice for the monotone roofline model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.slices import PartitionState, ResourceAllocation
from repro.errors import AllocationError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.performance import PerformanceModel


@dataclass
class OracleResult:
    """Best partition found and its predicted STP."""

    allocations: Dict[int, ResourceAllocation]
    stp: float
    evaluations: int


class OraclePartitioner:
    """Exhaustive / coordinate-descent search over slice sizes."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 sm_step: int = 4, mc_step: int = 4,
                 min_sms: int = 4, min_channels: int = 4) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        if sm_step <= 0 or mc_step <= 0:
            raise AllocationError("steps must be positive")
        self.config = config
        self.perf = PerformanceModel(config)
        self.sm_step = sm_step
        self.mc_step = mc_step
        self.min_sms = min_sms
        self.min_channels = min_channels

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _alone(self, kernels: Mapping[int, Kernel]) -> Dict[int, float]:
        return {
            app_id: self.perf.throughput(
                kernel, self.config.num_sms, self.config.num_channels
            ).ipc
            for app_id, kernel in kernels.items()
        }

    def score(self, kernels: Mapping[int, Kernel],
              allocations: Mapping[int, ResourceAllocation],
              alone: Mapping[int, float] = None) -> float:
        """Predicted STP of a partition."""
        alone = alone if alone is not None else self._alone(kernels)
        total = 0.0
        for app_id, kernel in kernels.items():
            alloc = allocations[app_id]
            ipc = self.perf.throughput(kernel, alloc.sms, alloc.channels).ipc
            total += ipc / alone[app_id] if alone[app_id] > 0 else 0.0
        return total

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def best_partition(self, kernels: Mapping[int, Kernel]) -> OracleResult:
        if not kernels:
            raise AllocationError("no applications to partition")
        if len(kernels) == 2:
            return self._exhaustive_two_way(kernels)
        return self._coordinate_descent(kernels)

    def _exhaustive_two_way(self, kernels) -> OracleResult:
        a, b = sorted(kernels)
        alone = self._alone(kernels)
        total_sms = self.config.num_sms
        total_mcs = self.config.num_channels
        best = None
        evaluations = 0
        for sms in range(self.min_sms, total_sms - self.min_sms + 1, self.sm_step):
            for mcs in range(self.min_channels,
                             total_mcs - self.min_channels + 1, self.mc_step):
                allocations = {
                    a: ResourceAllocation(sms, mcs),
                    b: ResourceAllocation(total_sms - sms, total_mcs - mcs),
                }
                stp = self.score(kernels, allocations, alone)
                evaluations += 1
                if best is None or stp > best[0]:
                    best = (stp, allocations)
        return OracleResult(allocations=best[1], stp=best[0],
                            evaluations=evaluations)

    def _coordinate_descent(self, kernels) -> OracleResult:
        state = PartitionState.even(
            sorted(kernels),
            total_sms=self.config.num_sms,
            total_channels=self.config.num_channels,
            min_sms=self.min_sms,
            min_channels=self.min_channels,
        )
        allocations = state.allocations()
        alone = self._alone(kernels)
        evaluations = 1
        current = self.score(kernels, allocations, alone)
        improved = True
        while improved:
            improved = False
            best_move: Tuple[float, Dict[int, ResourceAllocation]] = (current, None)
            for donor in allocations:
                for receiver in allocations:
                    if donor == receiver:
                        continue
                    for d_sms, d_mcs in ((self.sm_step, 0), (0, self.mc_step)):
                        candidate = dict(allocations)
                        new_donor = candidate[donor].move(-d_sms, -d_mcs)
                        if (new_donor.sms < self.min_sms
                                or new_donor.channels < self.min_channels):
                            continue
                        candidate[donor] = new_donor
                        candidate[receiver] = candidate[receiver].move(d_sms, d_mcs)
                        stp = self.score(kernels, candidate, alone)
                        evaluations += 1
                        if stp > best_move[0] + 1e-9:
                            best_move = (stp, candidate)
            if best_move[1] is not None:
                current, allocations = best_move
                improved = True
        return OracleResult(allocations=allocations, stp=current,
                            evaluations=evaluations)
