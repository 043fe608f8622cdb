"""Warp-level timing: from kernel characteristics to per-SM issue rate.

The workload catalog stores each kernel's ``ipc_per_sm`` directly (that is
what UGPU's counters observe), but the value is *derived from* warp-level
behaviour: resident warps hide memory latency, and the SM issues from
whichever warps are ready.  This module provides that derivation, used to
sanity-check the catalog's calibration and to characterize synthetic
kernels from first principles.

Model: a warp alternates compute phases and memory stalls.  Per (thread)
instruction it spends 1/width issue cycles and
``apki/1000 * miss_rate_l1 * latency`` stall cycles waiting for LLC/DRAM
returns (divided by per-warp MLP).  With ``W`` resident warps, the SM's
issue slots are busy ``min(1, W * duty)`` of the time, where ``duty`` is
one warp's issue-cycle fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.kernel import Kernel


@dataclass(frozen=True)
class WarpTiming:
    """Derived warp-level quantities for one kernel."""

    issue_cycles_per_instr: float
    stall_cycles_per_instr: float
    warp_duty: float          #: fraction of time one warp is issue-ready
    warps_to_saturate: float  #: resident warps needed for full issue rate

    @property
    def latency_bound(self) -> bool:
        """True if 64 resident warps cannot saturate the schedulers."""
        return self.warps_to_saturate > 64.0


class WarpTimingModel:
    """Derive per-SM issue rates from warp-level structure."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 l1_miss_rate: float = 0.6,
                 mlp_per_warp: float = 6.0) -> None:
        """``l1_miss_rate``: fraction of a kernel's memory instructions
        missing the L1 and travelling to the LLC (APKI counts those);
        ``mlp_per_warp``: overlapping outstanding misses per warp
        (coalesced GPU loads keep several lines in flight; 128 L1 MSHRs
        over ~20 actively-missing warps gives roughly six)."""
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        if not 0.0 < l1_miss_rate <= 1.0:
            raise ConfigError("l1_miss_rate must be in (0, 1]")
        if mlp_per_warp <= 0:
            raise ConfigError("mlp_per_warp must be positive")
        self.config = config
        self.l1_miss_rate = l1_miss_rate
        self.mlp_per_warp = mlp_per_warp

    def _memory_latency(self, kernel: Kernel) -> float:
        """Average LLC-or-DRAM round trip for this kernel's accesses."""
        cfg = self.config
        hit = kernel.llc_hit_rate
        return hit * cfg.llc_latency_cycles + (1 - hit) * cfg.dram_latency_cycles

    def timing(self, kernel: Kernel, resident_warps: int = 64) -> WarpTiming:
        """Warp-level breakdown of the kernel's execution."""
        if resident_warps <= 0:
            raise ConfigError("resident_warps must be positive")
        cfg = self.config
        # Issue time: one warp instruction (32 threads) per scheduler slot.
        issue_per_thread_instr = 1.0 / cfg.threads_per_warp
        # Stall time: LLC accesses per thread instruction, serialized over
        # the warp's MLP.
        llc_accesses_per_instr = kernel.apki_llc / 1000.0
        stall_per_thread_instr = (
            llc_accesses_per_instr
            * self._memory_latency(kernel)
            / self.mlp_per_warp
        )
        duty = issue_per_thread_instr / max(
            issue_per_thread_instr + stall_per_thread_instr, 1e-12
        )
        saturate = 1.0 / max(duty, 1e-12)
        return WarpTiming(
            issue_cycles_per_instr=issue_per_thread_instr,
            stall_cycles_per_instr=stall_per_thread_instr,
            warp_duty=duty,
            warps_to_saturate=saturate,
        )

    def ipc_per_sm(self, kernel: Kernel, resident_warps: int = 64) -> float:
        """Achievable thread-level IPC of one SM running this kernel.

        ``min(peak, W * duty * peak)`` with peak = schedulers x lanes.
        """
        cfg = self.config
        peak = cfg.warp_schedulers_per_sm * cfg.threads_per_warp
        t = self.timing(kernel, resident_warps)
        occupancy_factor = min(1.0, resident_warps * t.warp_duty
                               / cfg.warp_schedulers_per_sm)
        return peak * occupancy_factor

    def validates_catalog_value(self, kernel: Kernel,
                                tolerance: float = 0.35) -> bool:
        """Is the catalog's stored ``ipc_per_sm`` achievable within
        ``tolerance`` of the warp-derived value (at full occupancy)?"""
        derived = self.ipc_per_sm(kernel)
        return kernel.ipc_per_sm <= derived * (1.0 + tolerance)
