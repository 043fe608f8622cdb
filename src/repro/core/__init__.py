"""UGPU core: dynamically constructed unbalanced GPU slices.

The paper's primary contribution (Sections 3-4 glue): epoch profiling
(:mod:`repro.core.profiler`), the demand-aware resource partitioning
algorithm (:mod:`repro.core.partitioner`), its hardware cost model
(:mod:`repro.core.hardware_cost`), SM drain/switch reallocation
(:mod:`repro.core.reallocation`), and the epoch-level runner
(:mod:`repro.core.system`) that composes the :mod:`repro.policies`
objects the evaluation benches run.
"""

from repro.core.slices import GPUSlice, PartitionState, ResourceAllocation
from repro.core.profiler import AppProfile, EpochProfiler
from repro.core.partitioner import DemandAwarePartitioner, PartitionDecision
from repro.core.hardware_cost import AlgorithmCostModel
from repro.core.oracle import OraclePartitioner, OracleResult
from repro.core.reallocation import SMPolicy, SMReallocator
from repro.core.system import (
    AppState,
    MultitaskSystem,
    OpenSystemResult,
    SystemResult,
)
from repro.core.qos import QoSTarget

__all__ = [
    "ResourceAllocation",
    "GPUSlice",
    "PartitionState",
    "AppProfile",
    "EpochProfiler",
    "DemandAwarePartitioner",
    "PartitionDecision",
    "AlgorithmCostModel",
    "OraclePartitioner",
    "OracleResult",
    "SMPolicy",
    "SMReallocator",
    "AppState",
    "MultitaskSystem",
    "SystemResult",
    "OpenSystemResult",
    "QoSTarget",
]
