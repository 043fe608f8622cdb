"""Memory-oversubscription overhead model (paper Sections 3.2 and 5).

The paper's evaluation excludes oversubscribed workloads but specifies how
UGPU would treat them: an application whose working set exceeds its
allocated memory capacity is classified memory-bound, and additional
memory channels (which carry capacity with them) reduce page-fault and
swapping overhead.

This model supplies the missing piece for the epoch simulation: given an
application's footprint, its allocated capacity and its demand traffic, it
estimates the far-fault rate and the throughput factor the 20 us fault
latency imposes.

The fault-rate model is the standard working-set argument: a fraction
``overflow = 1 - capacity / footprint`` of the resident set is absent at
any time; accesses are spread uniformly over the footprint (GPU kernels'
streaming behaviour), so that same fraction of *page touches* faults.
Page touches are DRAM traffic divided by the page size times a reuse
factor (most of a page's lines are consumed per touch for streaming
kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig


@dataclass(frozen=True)
class OversubscriptionCharge:
    """Per-epoch fault overhead."""

    overflow_fraction: float      #: share of the working set not resident
    faults_per_cycle: float
    throughput_factor: float      #: multiply IPC by this (<= 1)

    @property
    def oversubscribed(self) -> bool:
        return self.overflow_fraction > 0.0


class FaultOverheadModel:
    """Far-fault cost of running with less memory than the working set."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 page_size: int = 4096,
                 lines_per_page_touch: float = 16.0,
                 concurrent_faults: float = 16.0) -> None:
        """``lines_per_page_touch``: cache lines consumed per page visit
        (streaming kernels use most of a 4 KB page: 32 lines; irregular
        ones fewer).  ``concurrent_faults``: faults the driver overlaps
        (batched handling hides part of the 20 us latency)."""
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        if page_size <= 0 or lines_per_page_touch <= 0 or concurrent_faults <= 0:
            raise ConfigError("oversubscription parameters must be positive")
        self.config = config
        self.page_size = page_size
        self.lines_per_page_touch = lines_per_page_touch
        self.concurrent_faults = concurrent_faults

    def capacity_for_channels(self, channels: int,
                              total_capacity_bytes: int) -> float:
        """Memory capacity an allocation of ``channels`` channels carries."""
        if channels < 0:
            raise ConfigError("channels must be non-negative")
        return total_capacity_bytes * channels / self.config.num_channels

    def charge(self, footprint_bytes: int, capacity_bytes: float,
               dram_bytes_per_cycle: float) -> OversubscriptionCharge:
        """Fault overhead for one application this epoch.

        Returns a throughput factor derived from the fault service time
        per useful cycle: with ``f`` faults/cycle each costing ``L``
        cycles, overlapped ``c`` ways, useful throughput scales by
        ``1 / (1 + f * L / c)``.
        """
        if footprint_bytes < 0 or capacity_bytes < 0 or dram_bytes_per_cycle < 0:
            raise ConfigError("charge inputs must be non-negative")
        if footprint_bytes <= capacity_bytes or footprint_bytes == 0:
            return OversubscriptionCharge(0.0, 0.0, 1.0)
        overflow = 1.0 - capacity_bytes / footprint_bytes
        line = self.config.llc_line_bytes
        touch_bytes = self.lines_per_page_touch * line
        page_touches_per_cycle = dram_bytes_per_cycle / touch_bytes
        faults_per_cycle = overflow * page_touches_per_cycle
        latency = self.config.page_fault_latency_cycles()
        stall = faults_per_cycle * latency / self.concurrent_faults
        return OversubscriptionCharge(
            overflow_fraction=overflow,
            faults_per_cycle=faults_per_cycle,
            throughput_factor=1.0 / (1.0 + stall),
        )
