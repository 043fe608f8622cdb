"""Kernel and application models.

A :class:`Kernel` is characterized the way UGPU's profiler sees it
(Section 3.2): peak per-SM issue rate, LLC accesses per kilo-instruction
(APKI), LLC hit rate and memory footprint.  An :class:`Application` is a
sequence of kernels executed in order and re-launched when it finishes
early — the paper's methodology for 25M-cycle multiprogram runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.frozen import once_per_object
from repro.gpu.llc import HitRateCurve


@once_per_object  # throughput memos hash their kernel on every lookup
@dataclass(frozen=True)
class Kernel:
    """One GPU kernel's profile.

    Attributes
    ----------
    name:
        Kernel label (``<app>#<index>`` by convention).
    ipc_per_sm:
        Peak instructions/cycle one SM sustains when memory never stalls
        it (Equation 1's :math:`IPC_{max}` expressed per SM).
    apki_llc:
        LLC accesses per kilo-instruction (Equation 1's APKI).
    llc_hit_rate:
        Profiled LLC hit rate at the reference allocation.
    footprint_bytes:
        Resident data set of the kernel.
    instructions:
        Kernel length in instructions (per launched grid).
    hit_curve:
        Optional capacity-dependent hit-rate curve; when None the hit rate
        is treated as capacity-independent.
    """

    name: str
    ipc_per_sm: float
    apki_llc: float
    llc_hit_rate: float
    footprint_bytes: int
    instructions: int = 50_000_000
    hit_curve: Optional[HitRateCurve] = None

    def __post_init__(self) -> None:
        if self.ipc_per_sm <= 0:
            raise ConfigError(f"{self.name}: ipc_per_sm must be positive")
        if self.apki_llc < 0:
            raise ConfigError(f"{self.name}: apki_llc must be non-negative")
        if not 0.0 <= self.llc_hit_rate <= 1.0:
            raise ConfigError(f"{self.name}: llc_hit_rate must be in [0, 1]")
        if self.footprint_bytes < 0:
            raise ConfigError(f"{self.name}: footprint must be non-negative")
        if self.instructions <= 0:
            raise ConfigError(f"{self.name}: instructions must be positive")

    @property
    def mpki_llc(self) -> float:
        """LLC misses per kilo-instruction (the Table 2 MPKI column)."""
        return self.apki_llc * (1.0 - self.llc_hit_rate)

    def hit_rate_at(self, llc_capacity_bytes: float) -> float:
        """Hit rate with a given LLC allocation."""
        if self.hit_curve is None:
            return self.llc_hit_rate
        return self.hit_curve.hit_rate(llc_capacity_bytes)


@dataclass
class KernelProgress:
    """Execution cursor within an application's kernel sequence."""

    kernel_index: int = 0
    instructions_done: int = 0
    launches: int = 0          #: completed full passes over the kernel list
    total_instructions: int = 0


class Application:
    """A benchmark: an ordered kernel list plus execution state."""

    def __init__(self, app_id: int, name: str, kernels: Sequence[Kernel]) -> None:
        if not kernels:
            raise ConfigError(f"application {name} needs at least one kernel")
        self.app_id = app_id
        self.name = name
        self.kernels: List[Kernel] = list(kernels)
        self.progress = KernelProgress()
        #: Instructions retired during the first full run (the paper
        #: reports performance from each benchmark's first run).
        self.first_run_instructions: Optional[int] = None

    @property
    def current_kernel(self) -> Kernel:
        return self.kernels[self.progress.kernel_index]

    @property
    def footprint_bytes(self) -> int:
        """Application memory footprint: the max over its kernels."""
        return max(k.footprint_bytes for k in self.kernels)

    @property
    def instructions_per_launch(self) -> int:
        return sum(k.instructions for k in self.kernels)

    def advance(self, instructions: int) -> int:
        """Retire ``instructions``, walking across kernel boundaries and
        re-launching the application when it completes (the paper re-runs
        benchmarks that finish before the 25M-cycle horizon).

        Returns the number of kernel boundaries crossed (used to detect
        phase changes that may trigger repartitioning).
        """
        if instructions < 0:
            raise ConfigError("cannot advance by negative instructions")
        boundaries = 0
        remaining = instructions
        progress = self.progress
        while remaining > 0:
            kernel = self.kernels[progress.kernel_index]
            left_in_kernel = kernel.instructions - progress.instructions_done
            if remaining < left_in_kernel:
                progress.instructions_done += remaining
                remaining = 0
            else:
                remaining -= left_in_kernel
                progress.instructions_done = 0
                progress.kernel_index += 1
                boundaries += 1
                if progress.kernel_index >= len(self.kernels):
                    progress.kernel_index = 0
                    progress.launches += 1
                    if self.first_run_instructions is None:
                        self.first_run_instructions = (
                            progress.total_instructions + instructions - remaining
                        )
        progress.total_instructions += instructions
        return boundaries

    def reset(self) -> None:
        """Rewind execution state (fresh simulation run)."""
        self.progress = KernelProgress()
        self.first_run_instructions = None

    def clone(self, app_id: Optional[int] = None) -> "Application":
        """A fresh copy with reset progress (for homogeneous mixes)."""
        return Application(
            app_id=self.app_id if app_id is None else app_id,
            name=self.name,
            kernels=self.kernels,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Application({self.name}, {len(self.kernels)} kernels)"
