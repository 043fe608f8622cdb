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

from importlib import import_module

# ``__version__`` is the one eager attribute: run provenance stamps it
# (``from repro import __version__``), and ``pyproject.toml`` reads the
# distribution version from here.
__version__ = "2.0.0"


def _lazy_exports(namespace: dict, table: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for lazy package exports.

    A package ``__init__`` (PEP 562) lists its public names in one
    table, each under the module that defines it::

        _EXPORTS = {
            "repro.cluster.node": ("GPUNode", "NodeResult"),
            ...
        }

        __all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

    ``import repro.cluster`` then loads no submodule.  The first access
    of ``repro.cluster.GPUNode`` (``from repro.cluster import GPUNode``
    included) imports :mod:`repro.cluster.node` and caches the class in
    the package namespace, so later accesses are plain attribute reads.

    A package must not export a name that is also one of its
    submodules: importing the submodule binds that name on the package
    first, and the table entry would never be consulted.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__


_EXPORTS = {
    # GPU substrate
    "repro.gpu.config": ("GPUConfig",),
    "repro.gpu.kernel": ("Kernel", "Application"),
    "repro.gpu.performance": ("PerformanceModel",),
    # HBM substrate
    "repro.hbm.config": ("HBMConfig", "HBMTiming"),
    "repro.hbm.system": ("HBMSystem",),
    # PageMove
    "repro.pagemove.address_mapping": ("PageMoveAddressMapping",),
    "repro.pagemove.cost": ("MigrationMode", "MigrationCostModel"),
    "repro.pagemove.engine": ("MigrationEngine",),
    # Core
    "repro.core.slices": ("ResourceAllocation", "GPUSlice", "PartitionState"),
    "repro.core.profiler": ("AppProfile", "EpochProfiler"),
    "repro.core.partitioner": ("DemandAwarePartitioner",),
    "repro.core.hardware_cost": ("AlgorithmCostModel",),
    "repro.core.qos": ("QoSTarget",),
    "repro.core.system": (
        "MultitaskSystem", "SystemResult", "OpenSystemResult",
    ),
    # Partition policies
    "repro.policies.base": ("PartitionPolicy", "EvenPartitionPolicy"),
    "repro.policies.bp": ("BPPolicy", "BPBigSmallPolicy", "BPSmallBigPolicy"),
    "repro.policies.mps": ("MPSPolicy",),
    "repro.policies.cd_search": ("CDSearchPolicy",),
    "repro.policies.ugpu": ("UGPUPolicy",),
    # Cluster extension
    "repro.cluster.node": ("GPUNode",),
    "repro.cluster.scheduler": ("ClusterScheduler",),
    "repro.cluster.placement": ("PlacementPolicy",),
    "repro.cluster.health": ("FleetHealthMonitor",),
    # Metrics
    "repro.metrics.multiprogram": ("AppRun", "IntervalRun", "stp", "antt"),
    "repro.metrics.energy": ("EnergyModel",),
    # Telemetry
    "repro.telemetry.metrics": ("MetricsRegistry",),
    "repro.telemetry.series": ("CsvSampler",),
    "repro.telemetry.provenance": ("collect_provenance",),
    "repro.telemetry.bridge": ("registry_from_trace",),
    "repro.telemetry.exposition": (
        "to_prometheus", "to_json", "write_prometheus",
    ),
    # Observability handle
    "repro.obs": ("Obs",),
    # Tracing
    "repro.trace.recorder": ("TraceCategory", "TraceEvent", "TraceRecorder"),
    "repro.trace.summary": ("TraceSummary", "summarize"),
    "repro.trace.export": ("read_jsonl", "write_chrome_trace", "write_jsonl"),
    # Sweep execution engine
    "repro.exec.stats": ("ExecStats",),
    "repro.exec.executor": ("SweepExecutor",),
    "repro.exec.jobs": ("SweepJob",),
    "repro.exec.registry": ("register_policy", "registered_policies"),
    # Workloads
    "repro.workloads.benchmarks": ("TABLE2", "catalog", "build_application"),
    "repro.workloads.ai_models": ("build_ai_application",),
    "repro.workloads.mixes": (
        "build_mix", "heterogeneous_pairs", "homogeneous_pairs",
    ),
    "repro.workloads.arrivals": (
        "ArrivalEvent", "ArrivalSchedule", "poisson_arrivals",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__.insert(0, "__version__")
