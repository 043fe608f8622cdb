"""SM reallocation: adaptive draining vs. context switching.

Following Section 3.3 (and Chimera/CD-Search lineage), UGPU reassigns SMs
between slices with one of two mechanisms:

* **draining** — let the thread blocks already resident on the SM finish,
  then hand the SM over.  Cheap when blocks are short; latency is the
  expected residual block time.
* **switching** — save the resident blocks' context (registers + shared
  memory) to DRAM and restore it later.  Latency is the context volume
  over the available memory bandwidth, independent of block length.

UGPU drains when a block completes within the epoch and switches
otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig

#: Thread-block duration the UGPU and CD-Search policies cost SM
#: handovers with (:meth:`SMReallocator.cost` drains when it fits in an
#: epoch).
TB_DURATION_CYCLES = 200_000.0


class SMPolicy(enum.Enum):
    """How an SM changes hands."""

    DRAIN = "drain"
    SWITCH = "switch"


@dataclass(frozen=True)
class SMReallocationCharge:
    """Cost of moving a set of SMs to another slice."""

    policy: SMPolicy
    num_sms: int
    cycles: float           #: wall-clock latency until the SMs are handed over
    dram_bytes: int         #: context traffic (zero for draining)


class SMReallocator:
    """Pick and cost the SM handover mechanism."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 context_bytes_per_sm: int = None,
                 switch_fixed_cycles: float = 30_000.0) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        self.config = config
        #: Register file + shared memory per SM (the switched context).
        self.context_bytes_per_sm = (
            context_bytes_per_sm
            if context_bytes_per_sm is not None
            else config.registers_per_sm * 4 + config.shared_memory_per_sm
        )
        if self.context_bytes_per_sm <= 0:
            raise ConfigError("context size must be positive")
        #: Fixed per-switch cost: pipeline drain, barrier synchronization
        #: and cache/TLB refill after the preemption — the reason draining
        #: wins for short thread blocks despite the copy being fast.
        if switch_fixed_cycles < 0:
            raise ConfigError("switch_fixed_cycles must be non-negative")
        self.switch_fixed_cycles = switch_fixed_cycles

    def choose_policy(self, tb_duration_cycles: float,
                      epoch_cycles: int) -> SMPolicy:
        """Drain if a thread block completes within the epoch, else
        switch (the paper's adaptive rule)."""
        if tb_duration_cycles < 0 or epoch_cycles <= 0:
            raise ConfigError("durations must be positive")
        return (
            SMPolicy.DRAIN
            if tb_duration_cycles <= epoch_cycles
            else SMPolicy.SWITCH
        )

    def drain_cost(self, num_sms: int, tb_duration_cycles: float) -> SMReallocationCharge:
        """Expected residual block time: half a block on average."""
        self._check_sms(num_sms)
        return SMReallocationCharge(
            policy=SMPolicy.DRAIN,
            num_sms=num_sms,
            cycles=tb_duration_cycles / 2.0,
            dram_bytes=0,
        )

    def switch_cost(self, num_sms: int, channels_available: int) -> SMReallocationCharge:
        """Context save + restore through the slice's memory channels."""
        self._check_sms(num_sms)
        if channels_available <= 0:
            raise ConfigError("switching needs at least one memory channel")
        total_bytes = 2 * num_sms * self.context_bytes_per_sm  # save + restore
        bandwidth = (
            channels_available * self.config.channel_bandwidth_bytes_per_cycle()
        )
        return SMReallocationCharge(
            policy=SMPolicy.SWITCH,
            num_sms=num_sms,
            cycles=self.switch_fixed_cycles + total_bytes / bandwidth,
            dram_bytes=total_bytes,
        )

    def cost(self, num_sms: int, tb_duration_cycles: float, epoch_cycles: int,
             channels_available: int) -> SMReallocationCharge:
        """Adaptive policy choice plus its cost."""
        if num_sms == 0:
            return SMReallocationCharge(SMPolicy.DRAIN, 0, 0.0, 0)
        policy = self.choose_policy(tb_duration_cycles, epoch_cycles)
        if policy is SMPolicy.DRAIN:
            return self.drain_cost(num_sms, tb_duration_cycles)
        return self.switch_cost(num_sms, channels_available)

    @staticmethod
    def _check_sms(num_sms: int) -> None:
        if num_sms < 0:
            raise ConfigError("num_sms must be non-negative")
