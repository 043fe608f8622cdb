"""HBM configuration and timing parameters (paper Table 1).

All timing values are in *memory clock* cycles.  The paper's GPU core clock
is 1.25x slower than the memory data-transfer clock (Section 4.5), so
``HBMConfig.to_gpu_cycles`` converts command latencies into the GPU cycle
domain used by the epoch simulation.

Both records are frozen: each validates once and hashes once per object
(see :mod:`repro.frozen`), and a refusal is never remembered, so every
``validate()`` of an inconsistent object raises the same error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ConfigError
from repro.frozen import once_per_object
from repro.units import GB_DECIMAL, is_power_of_two


@once_per_object
@dataclass(frozen=True)
class HBMTiming:
    """HBM DRAM timing constraints, in memory clock cycles.

    Values default to the paper's Table 1 row "HBM Timing", which follows
    the HBM configurations of Chatterjee et al. (HPCA 2017) and Ramulator.
    """

    tRC: int = 47    #: ACTIVATE -> ACTIVATE, same bank (row cycle)
    tRCD: int = 14   #: ACTIVATE -> column command, same bank
    tRP: int = 14    #: PRECHARGE -> ACTIVATE, same bank
    tCL: int = 14    #: READ -> data start (CAS latency)
    tWL: int = 2     #: WRITE -> data start (write latency)
    tRAS: int = 33   #: ACTIVATE -> PRECHARGE, same bank
    tRRDl: int = 6   #: ACTIVATE -> ACTIVATE, same bank group
    tRRDs: int = 4   #: ACTIVATE -> ACTIVATE, different bank group
    tFAW: int = 20   #: four-activate window per channel
    tRTP: int = 4    #: READ -> PRECHARGE, same bank
    tCCDl: int = 2   #: column -> column, same bank group
    tCCDs: int = 1   #: column -> column, different bank group
    tWTRl: int = 8   #: WRITE data end -> READ, same bank group
    tWTRs: int = 3   #: WRITE data end -> READ, different bank group
    tBL: int = 4     #: burst length in clocks (128 B over a 128-bit DDR bus)
    tMIG: int = 50   #: MIGRATION column copy latency in memory clocks
                     #: (paper Section 4.5: <=50 memory clocks, i.e. 40 GPU
                     #: cycles at the 1.25x clock ratio)
    tREFI: int = 1716  #: all-bank refresh interval (HBM2's 3.9 us at 440 MHz)
    tRFC: int = 115    #: refresh cycle time (~260 ns at 440 MHz)

    def validate(self) -> None:
        """Check internal consistency of the timing set."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value <= 0:
                raise ConfigError(
                    f"timing parameter {f.name} must be positive, got {value}")
        if self.tRAS + self.tRP > self.tRC:
            raise ConfigError(
                f"tRAS+tRP ({self.tRAS}+{self.tRP}) must not exceed tRC ({self.tRC})"
            )
        if self.tRRDs > self.tRRDl:
            raise ConfigError("tRRDs must not exceed tRRDl")
        if self.tCCDs > self.tCCDl:
            raise ConfigError("tCCDs must not exceed tCCDl")
        if self.tWTRs > self.tWTRl:
            raise ConfigError("tWTRs must not exceed tWTRl")
        if self.tRFC >= self.tREFI:
            raise ConfigError("tRFC must be shorter than tREFI")


@once_per_object
@dataclass(frozen=True)
class HBMConfig:
    """Structural description of the HBM memory system (paper Table 1).

    The default models 4 stacks of 8 channels; each channel has 4 bank
    groups of 4 banks, a 128-bit data bus, and its own slice of the
    aggregate 900 GB/s bandwidth.
    """

    num_stacks: int = 4
    channels_per_stack: int = 8
    bank_groups_per_channel: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 16384
    row_size_bytes: int = 2048          #: DRAM row (page) size per bank
    column_bytes: int = 128             #: one column access = one cache line
    bus_bits: int = 128                 #: per-channel data bus width
    freq_mhz: float = 440.0             #: command clock (Table 1)
    data_rate_multiplier: float = 4.0   #: DDR + 2x prefetch -> 900 GB/s total
    total_bandwidth_gbps: float = 900.0
    queue_entries: int = 64             #: per-channel request queue (Table 1)
    timing: HBMTiming = field(default_factory=HBMTiming)
    #: GPU core clock is 1.25x slower than the memory transfer clock
    #: (paper Section 4.5).
    gpu_to_mem_clock_ratio: float = 1.25

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an inconsistent configuration."""
        if self.num_stacks <= 0:
            raise ConfigError("num_stacks must be positive")
        for name in ("channels_per_stack", "bank_groups_per_channel", "banks_per_group"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        if self.column_bytes <= 0 or self.row_size_bytes % self.column_bytes != 0:
            raise ConfigError(
                "row_size_bytes must be a positive multiple of column_bytes"
            )
        if self.freq_mhz <= 0:
            raise ConfigError("freq_mhz must be positive")
        if self.total_bandwidth_gbps <= 0:
            raise ConfigError("total_bandwidth_gbps must be positive")
        self.timing.validate()

    @property
    def num_channels(self) -> int:
        """Total memory channels in the system (32 in the paper)."""
        return self.num_stacks * self.channels_per_stack

    @property
    def banks_per_channel(self) -> int:
        return self.bank_groups_per_channel * self.banks_per_group

    @property
    def columns_per_row(self) -> int:
        return self.row_size_bytes // self.column_bytes

    @property
    def channel_bandwidth_gbps(self) -> float:
        """Peak bandwidth of a single memory channel (~28.1 GB/s)."""
        return self.total_bandwidth_gbps / self.num_channels

    @property
    def channel_bytes_per_mem_cycle(self) -> float:
        """Peak bytes a channel moves per memory command clock."""
        return self.channel_bandwidth_gbps * GB_DECIMAL / (self.freq_mhz * 1e6)

    def to_gpu_cycles(self, mem_cycles: float) -> float:
        """Convert memory clock cycles into GPU core cycles."""
        return mem_cycles / self.gpu_to_mem_clock_ratio

    def to_mem_cycles(self, gpu_cycles: float) -> float:
        """Convert GPU core cycles into memory clock cycles."""
        return gpu_cycles * self.gpu_to_mem_clock_ratio

    def migration_gpu_cycles_per_command(self) -> float:
        """MIGRATION command latency expressed in GPU cycles (40 with the
        paper's 50-memory-clock estimate and 1.25x clock ratio)."""
        return self.to_gpu_cycles(self.timing.tMIG)
