"""GPU architecture configuration (paper Table 1).

:data:`DEFAULT_GPU_CONFIG` is the Table 1 machine every component uses
when it is given no config: one shared instance per process, so the
thousands of short runs behind the paper's figures build, validate and
hash it once.  A :class:`GPUConfig` is frozen, so each object also
caches its own checks (see :mod:`repro.frozen`): ``validate()`` checks
once and then returns at once (a refusal is never remembered, so every
call on an inconsistent config raises the same error), ``hash()``
computes the field hash once, and :attr:`GPUConfig.roofline` holds the
constants every roofline evaluation reads.  A config built with
:func:`dataclasses.replace` is a new object and validates on its own
first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.errors import ConfigError
from repro.frozen import once_per_object
from repro.hbm.config import HBMConfig
from repro.units import KB, MB


class RooflineConstants(NamedTuple):
    """The config-derived constants of Equations 1-2 and the MLP draw
    law, each computed exactly as the derived quantity it names, and the
    two per-slice laws that read them."""

    line_bytes: int               #: ``llc_line_bytes``
    llc_bytes_per_channel: int    #: ``llc_bytes_per_channel``
    #: ``llc_slices_per_channel * llc_slice_bandwidth_bytes_per_cycle()``
    llc_bw_per_channel: float
    dram_bw_per_channel: float    #: ``channel_bandwidth_bytes_per_cycle()``
    latency_ratio: float          #: ``llc_latency_cycles / dram_latency_cycles``
    draw_coefficient: float       #: ``mlp_draw_coefficient``
    draw_exponent: float          #: ``mlp_draw_exponent``

    def supply_per_channel(self, hit: float) -> float:
        """Equation 2 for one channel and its LLC slices,
        ``H * B_LLC + min((1-H) * B_LLC, B_MEM)``: hits stream at LLC
        bandwidth, misses at the smaller of the miss stream and the
        channel's DRAM bandwidth."""
        llc_bw = self.llc_bw_per_channel
        return hit * llc_bw + min((1.0 - hit) * llc_bw, self.dram_bw_per_channel)

    def draw(self, num_sms: int, num_channels: int, hit: float) -> float:
        """MLP draw ceiling: LLC-level bytes/cycle a slice can keep in
        flight (see :attr:`GPUConfig.mlp_draw_coefficient`)."""
        scale = 1.0 - (1.0 - self.latency_ratio) * min(max(hit, 0.0), 1.0)
        return (
            self.draw_coefficient
            * (num_sms * num_channels) ** self.draw_exponent
            / max(scale, self.latency_ratio)
        )


@once_per_object
@dataclass(frozen=True)
class GPUConfig:
    """The simulated GPU of Table 1.

    80 SMs at 1.4 GHz with 32-wide SIMT, a 6 MB LLC in 64 slices (two per
    memory channel), an 80x64 crossbar NoC and 4 HBM stacks totalling
    32 channels / 900 GB/s.
    """

    num_sms: int = 80
    sm_freq_ghz: float = 1.4
    simt_width: int = 32
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    threads_per_warp: int = 32
    warp_schedulers_per_sm: int = 2
    shared_memory_per_sm: int = 96 * KB
    registers_per_sm: int = 65536
    max_blocks_per_sm: int = 32

    l1d_size: int = 48 * KB
    l1d_ways: int = 6
    l1d_sets: int = 64
    l1d_line_bytes: int = 128
    l1d_mshr_entries: int = 128

    llc_size: int = 6 * MB
    llc_slices: int = 64
    llc_ways: int = 16
    llc_sets_per_slice: int = 48
    llc_latency_cycles: int = 120
    llc_line_bytes: int = 128

    l1_tlb_entries: int = 64
    l2_tlb_entries: int = 512
    l2_tlb_ways: int = 16

    noc_ports_sm: int = 80
    noc_ports_mem: int = 64
    noc_channel_bytes: int = 32

    ptw_threads: int = 64
    page_table_levels: int = 4
    page_fault_latency_us: float = 20.0   #: optimistic UVM fault (Section 5)

    #: Memory-level-parallelism draw law: the LLC-level bandwidth a slice
    #: of s SMs and m channels can keep in flight is
    #: ``draw_coeff * (s * m) ** draw_exp / (1 - (1 - r) * H)`` bytes per
    #: cycle, where ``r = llc_latency / dram_latency`` — in-flight capacity
    #: grows with both source parallelism (L1 MSHRs per SM) and sink
    #: parallelism (per-channel queue depth) but sub-linearly in their
    #: product (queueing losses), and inversely with the hit-rate-weighted
    #: round-trip latency (hits return ~3x faster, so hit-heavy streams
    #: sustain more bandwidth per MSHR).  Calibrated so a PVC-like kernel
    #: (25% hits) on 16 channels starts declining below ~20 SMs
    #: (Figure 3b) while 40 SMs cannot fully utilize all 32 channels
    #: ("increases slowly", Figure 3a).
    mlp_draw_coefficient: float = 35.6
    mlp_draw_exponent: float = 0.45
    #: Average DRAM round-trip latency in GPU cycles, used (with
    #: ``llc_latency_cycles``) to scale the MLP draw ceiling by hit rate.
    dram_latency_cycles: int = 400

    hbm: HBMConfig = field(default_factory=HBMConfig)

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the configuration is inconsistent."""
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")
        if self.sm_freq_ghz <= 0:
            raise ConfigError("sm_freq_ghz must be positive")
        if self.llc_latency_cycles <= 0:
            raise ConfigError("llc_latency_cycles must be positive")
        if self.dram_latency_cycles <= 0:
            raise ConfigError("dram_latency_cycles must be positive")
        if self.max_warps_per_sm * self.threads_per_warp != self.max_threads_per_sm:
            raise ConfigError(
                "max_threads_per_sm must equal max_warps_per_sm * threads_per_warp"
            )
        if self.llc_slices % self.hbm.num_channels != 0:
            raise ConfigError(
                "llc_slices must be a multiple of the memory channel count"
            )
        expected_llc = (
            self.llc_slices * self.llc_ways * self.llc_sets_per_slice * self.llc_line_bytes
        )
        if expected_llc != self.llc_size:
            raise ConfigError(
                f"LLC geometry ({expected_llc} B) disagrees with llc_size "
                f"({self.llc_size} B)"
            )
        self.hbm.validate()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def sm_freq_hz(self) -> float:
        return self.sm_freq_ghz * 1e9

    @property
    def llc_slices_per_channel(self) -> int:
        """LLC slices co-located with each memory channel (2 in Table 1)."""
        return self.llc_slices // self.hbm.num_channels

    @property
    def llc_bytes_per_channel(self) -> int:
        """LLC capacity that travels with one memory channel."""
        return self.llc_size // self.hbm.num_channels

    @property
    def num_channels(self) -> int:
        return self.hbm.num_channels

    def channel_bandwidth_bytes_per_cycle(self) -> float:
        """Peak DRAM bytes per *GPU cycle* provided by one channel."""
        per_second = self.hbm.channel_bandwidth_gbps * 1e9
        return per_second / self.sm_freq_hz

    def llc_slice_bandwidth_bytes_per_cycle(self) -> float:
        """Peak bytes per GPU cycle one LLC slice can serve.

        One 128 B line every four cycles per slice (32 B/cycle, i.e.
        64 B/cycle per memory channel with its two slices) — the ~2x-DRAM
        LLC bandwidth ratio typical of GPU LLCs, and the value that places
        every Table 2 benchmark on its published side of the Equation 1/2
        classification boundary.
        """
        return self.llc_line_bytes / 4

    def page_fault_latency_cycles(self) -> float:
        """The 20 us far-fault latency expressed in GPU cycles."""
        return self.page_fault_latency_us * 1e-6 * self.sm_freq_hz

    def draw_bytes_per_cycle(self, num_sms: int, num_channels: int,
                             llc_hit_rate: float) -> float:
        """MLP draw ceiling: LLC-level bytes/cycle a slice can keep in
        flight (see :attr:`mlp_draw_coefficient`)."""
        return self.roofline.draw(num_sms, num_channels, llc_hit_rate)

    @cached_property
    def roofline(self) -> RooflineConstants:
        """The constants every roofline evaluation reads, computed once
        per object (the config is frozen, so they cannot go stale)."""
        return RooflineConstants(
            self.llc_line_bytes,
            self.llc_bytes_per_channel,
            self.llc_slices_per_channel * self.llc_slice_bandwidth_bytes_per_cycle(),
            self.channel_bandwidth_bytes_per_cycle(),
            self.llc_latency_cycles / self.dram_latency_cycles,
            self.mlp_draw_coefficient,
            self.mlp_draw_exponent,
        )


#: The Table 1 machine, shared by every component built without a config.
DEFAULT_GPU_CONFIG = GPUConfig()
