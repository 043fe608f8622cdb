"""repro — UGPU: Dynamically Constructing Unbalanced GPUs (ISCA 2025).

A full-system reproduction of UGPU: dynamically constructed, unbalanced
GPU slices with demand-aware resource partitioning and PageMove intra-HBM
page migration.

Quickstart::

    from repro import BPPolicy, MultitaskSystem, UGPUPolicy, build_mix

    mix = build_mix(["PVC", "DXTC"])
    bp = MultitaskSystem(mix.applications, policy=BPPolicy()).run()
    mix2 = build_mix(["PVC", "DXTC"])
    ugpu = MultitaskSystem(mix2.applications, policy=UGPUPolicy()).run()
    print(f"STP: BP={bp.stp:.2f}  UGPU={ugpu.stp:.2f}")

Open-system runs add an arrival schedule::

    from repro import ArrivalSchedule, poisson_arrivals

    arrivals = poisson_arrivals(5_000_000, 25_000_000, seed=0)
    result = MultitaskSystem([], policy=UGPUPolicy(), arrivals=arrivals).run()
    print(f"interval STP={result.stp:.2f}  makespan={result.makespan}")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

# Defined before any submodule import: the exec job specs and the fleet
# shard jobs fold the package version into their cache keys, so their
# modules do ``from repro import __version__`` while this package is
# still initializing.  ``pyproject.toml`` reads the distribution version
# from here.
__version__ = "2.0.0"

from repro.cluster import (
    ClusterScheduler,
    FleetHealthMonitor,
    GPUNode,
    PlacementPolicy,
)
from repro.core import (
    AlgorithmCostModel,
    AppProfile,
    DemandAwarePartitioner,
    EpochProfiler,
    GPUSlice,
    MultitaskSystem,
    OpenSystemResult,
    PartitionState,
    QoSTarget,
    ResourceAllocation,
    SystemResult,
)
from repro.gpu import Application, GPUConfig, Kernel, PerformanceModel
from repro.hbm import HBMConfig, HBMSystem, HBMTiming
from repro.metrics import AppRun, EnergyModel, IntervalRun, antt, stp
from repro.pagemove import (
    MigrationCostModel,
    MigrationEngine,
    MigrationMode,
    PageMoveAddressMapping,
)
from repro.policies import (
    BPBigSmallPolicy,
    BPPolicy,
    BPSmallBigPolicy,
    CDSearchPolicy,
    EvenPartitionPolicy,
    MPSPolicy,
    PartitionPolicy,
    UGPUPolicy,
)
from repro.obs import Obs
from repro.obslog import ObsLogger, read_obslog, validate_obslog_file
from repro.telemetry import (
    CsvSampler,
    MetricsRegistry,
    MetricsServer,
    collect_provenance,
    registry_from_trace,
    to_json,
    to_prometheus,
    write_prometheus,
)
from repro.trace import (
    TraceCategory,
    TraceEvent,
    TraceRecorder,
    TraceSummary,
    read_jsonl,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads import (
    TABLE2,
    ArrivalEvent,
    ArrivalSchedule,
    build_ai_application,
    build_application,
    build_mix,
    catalog,
    heterogeneous_pairs,
    homogeneous_pairs,
    poisson_arrivals,
)

from repro.exec import (  # noqa: E402
    ExecStats,
    ResultCache,
    SweepExecutor,
    SweepJob,
    register_policy,
    registered_policies,
)

__all__ = [
    "__version__",
    # GPU substrate
    "GPUConfig",
    "Kernel",
    "Application",
    "PerformanceModel",
    # HBM substrate
    "HBMConfig",
    "HBMTiming",
    "HBMSystem",
    # PageMove
    "PageMoveAddressMapping",
    "MigrationMode",
    "MigrationCostModel",
    "MigrationEngine",
    # Core
    "ResourceAllocation",
    "GPUSlice",
    "PartitionState",
    "AppProfile",
    "EpochProfiler",
    "DemandAwarePartitioner",
    "AlgorithmCostModel",
    "QoSTarget",
    "MultitaskSystem",
    "SystemResult",
    "OpenSystemResult",
    # Partition policies
    "PartitionPolicy",
    "EvenPartitionPolicy",
    "BPPolicy",
    "BPBigSmallPolicy",
    "BPSmallBigPolicy",
    "MPSPolicy",
    "CDSearchPolicy",
    "UGPUPolicy",
    # Cluster extension
    "GPUNode",
    "ClusterScheduler",
    "PlacementPolicy",
    "FleetHealthMonitor",
    # Metrics
    "AppRun",
    "IntervalRun",
    "stp",
    "antt",
    "EnergyModel",
    # Telemetry
    "MetricsRegistry",
    "CsvSampler",
    "MetricsServer",
    "collect_provenance",
    "registry_from_trace",
    "to_prometheus",
    "to_json",
    "write_prometheus",
    # Observability handle
    "Obs",
    # Structured logging
    "ObsLogger",
    "read_obslog",
    "validate_obslog_file",
    # Tracing
    "TraceCategory",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "read_jsonl",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
    # Sweep execution engine
    "ExecStats",
    "ResultCache",
    "SweepExecutor",
    "SweepJob",
    "register_policy",
    "registered_policies",
    # Workloads
    "TABLE2",
    "catalog",
    "build_application",
    "build_ai_application",
    "build_mix",
    "heterogeneous_pairs",
    "homogeneous_pairs",
    "ArrivalEvent",
    "ArrivalSchedule",
    "poisson_arrivals",
]
