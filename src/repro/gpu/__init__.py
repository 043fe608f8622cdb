"""GPU substrate: the simulated machine of paper Table 1.

An 80-SM GPU at 1.4 GHz with a 6 MB / 64-slice LLC, an 80x64 crossbar NoC
and the 4-stack HBM system from :mod:`repro.hbm`.  The module provides
both structural models (SM occupancy, set-associative LLC, crossbar) and
the analytic two-roofline performance model
(:mod:`repro.gpu.performance`) that the epoch-level system simulation
evaluates applications with.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.gpu.config": ("GPUConfig",),
    "repro.gpu.counters": ("HardwareCounter", "CounterBank"),
    "repro.gpu.kernel": ("Kernel", "KernelProgress", "Application"),
    "repro.gpu.llc": (
        "SetAssociativeCache", "CacheStats", "HitRateCurve", "SlicedLLC",
    ),
    "repro.gpu.noc": ("CrossbarNoC",),
    "repro.gpu.performance": ("PerformanceModel", "SliceThroughput"),
    "repro.gpu.sm": (
        "StreamingMultiprocessor", "OccupancyLimits", "occupancy",
    ),
    "repro.gpu.warp": ("WarpTiming", "WarpTimingModel"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
