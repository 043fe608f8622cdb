"""Characterize kernels from memory-access traces.

The Table 2 catalog pins profiles to published numbers; for *new*
workloads the pipeline a real deployment would use is: run (or sample) the
kernel, collect its L1-miss address trace, and derive the profile UGPU's
counters would report.  This module implements that pipeline against the
library's own cache model:

1. replay the trace through an LLC-sized set-associative cache to get the
   hit rate (and, via down-scaled replays, the capacity curve);
2. compute APKI from the access count and the instruction count;
3. derive the stall-free issue rate from the warp timing model.

The result is a ready-to-run :class:`~repro.gpu.kernel.Kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.llc import HitRateCurve, SetAssociativeCache
from repro.gpu.warp import WarpTimingModel


@dataclass(frozen=True)
class TraceProfile:
    """Raw quantities measured from a trace."""

    accesses: int
    instructions: int
    llc_hit_rate: float
    footprint_bytes: int

    @property
    def apki_llc(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.accesses * 1000.0 / self.instructions


class TraceCharacterizer:
    """Turn (address trace, instruction count) into a kernel profile."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 warp_model: Optional[WarpTimingModel] = None) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        self.config = config
        self.warp_model = (
            warp_model if warp_model is not None else WarpTimingModel(config)
        )

    def _cache(self, capacity: int) -> SetAssociativeCache:
        cfg = self.config
        line = cfg.llc_line_bytes
        ways = cfg.llc_ways
        # Round the capacity to the nearest legal geometry.
        sets = max(1, capacity // (ways * line))
        return SetAssociativeCache(size_bytes=sets * ways * line,
                                   ways=ways, line_bytes=line)

    def measure(self, trace: Sequence[int], instructions: int) -> TraceProfile:
        """Replay ``trace`` through a full-LLC-sized cache."""
        if instructions <= 0:
            raise ConfigError("instructions must be positive")
        cache = self._cache(self.config.llc_size)
        stats = cache.run_trace(trace)
        line = self.config.llc_line_bytes
        footprint = len({a // line for a in trace}) * line
        return TraceProfile(
            accesses=len(trace),
            instructions=instructions,
            llc_hit_rate=stats.hit_rate,
            footprint_bytes=footprint,
        )

    def capacity_curve(self, trace: Sequence[int],
                       fractions: Sequence[float] = (0.125, 0.25, 0.5, 1.0),
                       ) -> HitRateCurve:
        """Fit a :class:`HitRateCurve` by replaying at scaled capacities."""
        if not trace:
            raise ConfigError("cannot fit a curve to an empty trace")
        points = []
        for fraction in fractions:
            capacity = max(1, int(self.config.llc_size * fraction))
            cache = self._cache(capacity)
            points.append((capacity, cache.run_trace(trace).hit_rate))
        full_capacity, full_hit = points[-1]
        # Working set: the smallest measured capacity already at (close
        # to) the full-capacity hit rate; default to full capacity.
        working_set = float(full_capacity)
        for capacity, hit in points:
            if full_hit <= 0 or hit >= 0.98 * full_hit:
                working_set = float(capacity)
                break
        return HitRateCurve(
            reference_capacity=float(full_capacity),
            reference_hit_rate=full_hit,
            working_set=max(working_set, 1.0),
            peak_hit_rate=full_hit,
        )

    def kernel_from_trace(self, name: str, trace: Sequence[int],
                          instructions: int,
                          with_curve: bool = True) -> Kernel:
        """The full pipeline: trace -> runnable kernel profile."""
        profile = self.measure(trace, instructions)
        probe = Kernel(
            name=name,
            ipc_per_sm=1.0,  # placeholder; replaced below
            apki_llc=profile.apki_llc,
            llc_hit_rate=profile.llc_hit_rate,
            footprint_bytes=profile.footprint_bytes,
            instructions=instructions,
        )
        ipc = self.warp_model.ipc_per_sm(probe)
        curve = self.capacity_curve(trace) if with_curve and trace else None
        return Kernel(
            name=name,
            ipc_per_sm=max(ipc, 1.0),
            apki_llc=profile.apki_llc,
            llc_hit_rate=profile.llc_hit_rate,
            footprint_bytes=profile.footprint_bytes,
            instructions=instructions,
            hit_curve=curve,
        )
