"""UGPU core: dynamically constructed unbalanced GPU slices.

The paper's primary contribution (Sections 3-4 glue): epoch profiling
(:mod:`repro.core.profiler`), the demand-aware resource partitioning
algorithm (:mod:`repro.core.partitioner`), its hardware cost model
(:mod:`repro.core.hardware_cost`), SM drain/switch reallocation
(:mod:`repro.core.reallocation`), and the epoch-level runner
(:mod:`repro.core.system`) that composes the :mod:`repro.policies`
objects the evaluation benches run.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.core.slices": ("ResourceAllocation", "GPUSlice", "PartitionState"),
    "repro.core.profiler": ("AppProfile", "EpochProfiler"),
    "repro.core.partitioner": ("DemandAwarePartitioner", "PartitionDecision"),
    "repro.core.hardware_cost": ("AlgorithmCostModel",),
    "repro.core.oracle": ("OraclePartitioner", "OracleResult"),
    "repro.core.reallocation": ("SMPolicy", "SMReallocator"),
    "repro.core.system": (
        "AppState", "MultitaskSystem", "SystemResult", "OpenSystemResult",
    ),
    "repro.core.qos": ("QoSTarget",),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
