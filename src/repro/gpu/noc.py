"""Network-on-chip model: the 80x64 crossbar of Table 1.

The NoC carries requests from SMs to LLC slices / memory controllers and
replies back.  UGPU partitions NoC ports together with the resources they
front (each slice's SMs talk only to its channels' ports), so per-slice
NoC bandwidth scales with the slice's port counts.  The model is analytic:
it reports the bisection-style bandwidth available to a slice and whether
the NoC, rather than DRAM, would bound a given demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig


@dataclass(frozen=True)
class NoCAllocation:
    """Ports assigned to one GPU slice."""

    sm_ports: int
    mem_ports: int


class CrossbarNoC:
    """Analytic crossbar: per-port channel width, full bisection."""

    def __init__(self, config: Optional[GPUConfig] = None) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        self.config = config

    def allocation_for(self, num_sms: int, num_channels: int) -> NoCAllocation:
        """Ports a slice with ``num_sms`` SMs and ``num_channels`` memory
        channels owns (LLC slices travel with channels: 2 ports each)."""
        cfg = self.config
        if not 0 <= num_sms <= cfg.noc_ports_sm:
            raise ConfigError(f"num_sms {num_sms} out of range")
        mem_ports = num_channels * cfg.llc_slices_per_channel
        if mem_ports > cfg.noc_ports_mem:
            raise ConfigError(f"{num_channels} channels exceed NoC memory ports")
        return NoCAllocation(sm_ports=num_sms, mem_ports=mem_ports)

    def reply_bandwidth_bytes_per_cycle(self, allocation: NoCAllocation) -> float:
        """Peak reply-network bytes/cycle for a slice: limited by the
        narrower side of its crossbar ports."""
        width = self.config.noc_channel_bytes
        return min(allocation.sm_ports, allocation.mem_ports) * width

    def is_noc_bound(self, allocation: NoCAllocation,
                     demand_bytes_per_cycle: float) -> bool:
        """Would this demand saturate the slice's NoC before DRAM?

        With Table 1 parameters the answer is essentially always False —
        32 B/cycle/port dwarfs per-channel DRAM bandwidth — matching the
        paper's choice not to study the NoC as a bottleneck.
        """
        return demand_bytes_per_cycle > self.reply_bandwidth_bytes_per_cycle(allocation)

    def utilization(self, allocation: NoCAllocation,
                    demand_bytes_per_cycle: float) -> float:
        """Offered load over the slice's reply-network capacity (0..1+)."""
        capacity = self.reply_bandwidth_bytes_per_cycle(allocation)
        if capacity <= 0:
            return float("inf") if demand_bytes_per_cycle > 0 else 0.0
        return demand_bytes_per_cycle / capacity

    def queueing_latency_cycles(self, allocation: NoCAllocation,
                                demand_bytes_per_cycle: float,
                                hop_cycles: float = 4.0) -> float:
        """Expected per-flit traversal latency under load.

        M/D/1 waiting time on top of the crossbar's fixed hop latency:
        ``hop + rho / (2 * (1 - rho)) * service``, with one flit (a
        32-byte channel's worth) per cycle of service time.  Saturated
        (or over-saturated) slices return infinity — the signal that the
        slice is NoC-bound and the bandwidth roofline no longer describes
        it.  With Table 1 parameters demand never gets close (the DRAM
        roofline binds first), so the epoch model can safely ignore NoC
        queueing; this method exists to *verify* that claim per slice.
        """
        if hop_cycles < 0:
            raise ConfigError("hop_cycles must be non-negative")
        rho = self.utilization(allocation, demand_bytes_per_cycle)
        if rho >= 1.0:
            return float("inf")
        service = 1.0  # one flit per port per cycle
        return hop_cycles + rho / (2.0 * (1.0 - rho)) * service
