"""Pinned benchmark suite: the simulator's own performance trajectory.

The suite is a fixed set of scenarios — closed-system mixes per policy,
an open-system arrivals run, a PageMove-heavy migration run, and a sweep
through the :mod:`repro.exec` executor — each run ``repeats`` times with
min/median statistics over host wall seconds.  Minimum time is the
noise-robust statistic (it is the run least disturbed by the OS), so the
regression gate (:mod:`repro.profiling.compare`) compares minima; the
median is reported for context.

Every run clears the process-wide solo-IPC memo first, so repetition k
does exactly the work repetition 1 did and the statistics are over
identical computations.

The emitted artifact is a schema-versioned JSON document::

    {
      "schema": "repro.bench/1",
      "repeats": 3,
      "kernel_backend": "numpy",
      "provenance": {"git_sha": ..., "config_hash": ..., ...},
      "scenarios": {
        "closed_ugpu": {"description": ..., "seconds": [...],
                         "min_seconds": ..., "median_seconds": ...,
                         "meta": {"repartitions": 12, ...}},
        ...
      }
    }

written as ``BENCH_<git-sha>.json`` so a directory of artifacts reads as
a perf trajectory.  ``meta`` carries deterministic per-scenario counts
(epochs, repartitions, faults...) — if those drift between two BENCH
files, the comparison is apples to oranges and the compare layer says so.
The document-level ``kernel_backend`` records which simulation backend
(scalar oracle or numpy fast path) produced the times; the compare layer
likewise refuses to gate across backends.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigError

PathLike = Union[str, Path]

#: Version tag checked by :func:`read_bench`; bump on breaking layout
#: changes so stale baselines fail loudly instead of comparing garbage.
BENCH_SCHEMA = "repro.bench/1"


@dataclass(frozen=True)
class Scenario:
    """One pinned benchmark: a deterministic callable plus its story.

    ``fn`` takes an optional :class:`~repro.profiling.profiler.PhaseProfiler`
    (``repro profile`` reuses the same scenarios) and returns a dict of
    deterministic counts for the artifact's ``meta`` block.
    """

    name: str
    description: str
    fn: Callable[[Optional[object]], Dict[str, Any]]


# ----------------------------------------------------------------------
# Scenario bodies (pinned: changing a constant here invalidates baselines)
# ----------------------------------------------------------------------
def _closed_mix(policy_factory) -> Callable:
    def run(profiler=None) -> Dict[str, Any]:
        from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
        from repro.workloads.mixes import build_mix

        clear_solo_ipc_cache()
        system = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications,
            policy=policy_factory(),
            epoch_cycles=50_000,
            profiler=profiler,
        )
        result = system.run(25_000_000)
        return {
            "epochs": len(result.epochs),
            "repartitions": result.repartitions,
            "stp": round(result.stp, 6),
        }

    return run


def _scenario_arrivals(profiler=None) -> Dict[str, Any]:
    from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
    from repro.policies import UGPUPolicy
    from repro.workloads.arrivals import poisson_arrivals

    clear_solo_ipc_cache()
    schedule = poisson_arrivals(
        mean_interarrival_cycles=1_000_000,
        horizon_cycles=25_000_000,
        seed=0,
    )
    system = MultitaskSystem(
        [],
        policy=UGPUPolicy(),
        epoch_cycles=500_000,
        arrivals=schedule,
        profiler=profiler,
    )
    result = system.run(25_000_000, mix_name="bench-arrivals")
    return {
        "epochs": len(result.epochs),
        "arrivals": result.arrivals,
        "departures": result.departures,
        "repartitions": result.repartitions,
    }


def _scenario_ppmm_migration(profiler=None) -> Dict[str, Any]:
    """PageMove-heavy: fault pages in, then churn channel reallocation
    through the driver + migration engine + TLBs, and drain one
    command-level HBM controller — the Section 4.4 machinery end to end."""
    from repro.hbm.config import HBMConfig
    from repro.hbm.controller import MemoryController, MemoryRequest, RequestKind
    from repro.pagemove.engine import MigrationEngine
    from repro.vm.driver import FaultKind, GPUDriver
    from repro.vm.tlb import TLB

    driver = GPUDriver(num_channel_groups=8, pages_per_channel=4096,
                       profiler=profiler)
    driver.register_app(0, channels=range(0, 4))
    driver.register_app(1, channels=range(4, 8))
    engine = MigrationEngine(
        driver,
        l1_tlbs=[TLB.l1(f"l1tlb{i}") for i in range(4)],
        profiler=profiler,
    )
    for vpn in range(6000):
        driver.handle_fault(FaultKind.DEMAND, 0, vpn)
        driver.handle_fault(FaultKind.DEMAND, 1, 0x100000 + vpn)
    pages_moved = 0
    # Shift app 0's channel window back and forth: every step loses one
    # channel (eager vacate) and gains another (lazy rebalance).
    windows = [range(1, 5), range(0, 4), range(1, 5), range(0, 4)]
    for new_channels in windows:
        plan = engine.plan_channel_reallocation(
            0, new_channels, rebalance_cap=1500
        )
        report = engine.execute(plan)
        pages_moved += report.pages_moved
    controller = MemoryController(HBMConfig(), profiler=profiler)
    served = 0
    for wave in range(64):
        for i in range(48):
            controller.enqueue(MemoryRequest(
                kind=RequestKind.READ if (wave + i) % 3 else RequestKind.WRITE,
                bank_group=i % 4, bank=(i // 4) % 4,
                row=(wave * 7 + i) % 64, column=i % 32,
                arrival=controller.now,
            ))
        served += len(controller.drain())
    return {
        "faults": driver.faults,
        "pages_moved": pages_moved,
        "hbm_served": served,
    }


def _scenario_sweep(profiler=None) -> Dict[str, Any]:
    """Sweep through the PR 1 executor (in-process, cache disabled so
    every repetition simulates)."""
    from repro.core.system import clear_solo_ipc_cache
    from repro.exec import SweepExecutor, SweepJob
    from repro.workloads.mixes import heterogeneous_pairs

    clear_solo_ipc_cache()
    pairs = heterogeneous_pairs()[:10]
    executor = SweepExecutor(jobs=1, cache=None)
    jobs = [SweepJob.build(policy, pair, 25_000_000)
            for policy in ("bp", "ugpu") for pair in pairs]
    results = executor.run(jobs)
    return {
        "jobs": len(results),
        "mean_stp": round(
            statistics.fmean(r.stp for r in results), 6
        ),
    }


def _scenario_fleet(profiler=None) -> Dict[str, Any]:
    """Fleet-scale open system: 12 nodes, ~200 arriving/departing jobs,
    consolidating placement with energy-scored rebalancing — the cluster
    coordinator, shard physics and placement zoo end to end (in-process,
    cache off so every repetition simulates)."""
    from repro.cluster import FleetSimulator, PlacementPolicy
    from repro.workloads.arrivals import poisson_arrivals

    schedule = poisson_arrivals(
        mean_interarrival_cycles=150_000,
        horizon_cycles=30_000_000,
        seed=0,
        instructions_per_kernel=50_000_000,
    )
    simulator = FleetSimulator(
        12,
        schedule,
        PlacementPolicy.CONSOLIDATE,
        round_cycles=2_500_000,
        horizon_cycles=30_000_000,
        instructions_per_kernel=50_000_000,
        profiler=profiler,
    )
    result = simulator.run()
    return {
        "rounds": result.rounds,
        "arrivals": result.arrivals,
        "departures": result.departures,
        "migrations": result.migrations,
        "stp": round(result.stp, 6),
    }


def _scenarios() -> Dict[str, Scenario]:
    from repro.policies import BPPolicy, MPSPolicy, UGPUPolicy

    entries = [
        Scenario(
            "closed_bp",
            "PVC,DXTC under the balanced-partition baseline, 500 epochs",
            _closed_mix(BPPolicy),
        ),
        Scenario(
            "closed_ugpu",
            "PVC,DXTC under UGPU/PPMM with demand-aware repartitioning, "
            "500 epochs",
            _closed_mix(UGPUPolicy),
        ),
        Scenario(
            "closed_mps",
            "PVC,DXTC under the MPS SM-only baseline, 500 epochs",
            _closed_mix(MPSPolicy),
        ),
        Scenario(
            "arrivals",
            "open-system Poisson arrivals (seed 0) under UGPU, 50 epochs",
            _scenario_arrivals,
        ),
        Scenario(
            "ppmm_migration",
            "12K demand faults + 4 channel reallocations through the "
            "migration engine + one HBM controller drain",
            _scenario_ppmm_migration,
        ),
        Scenario(
            "sweep",
            "20-job bp/ugpu sweep through the exec layer (cache off)",
            _scenario_sweep,
        ),
        Scenario(
            "fleet",
            "12-node open-system fleet (seed 0) under consolidating "
            "placement, 12 rounds",
            _scenario_fleet,
        ),
    ]
    return {s.name: s for s in entries}


#: The pinned suite, keyed by scenario name (insertion order is report
#: order).  Built lazily on first use to keep import light.
_SCENARIO_CACHE: Optional[Dict[str, Scenario]] = None


def scenarios() -> Dict[str, Scenario]:
    global _SCENARIO_CACHE
    if _SCENARIO_CACHE is None:
        _SCENARIO_CACHE = _scenarios()
    return _SCENARIO_CACHE


def scenario_names() -> List[str]:
    return list(scenarios())


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_bench(
    names: Optional[Iterable[str]] = None,
    repeats: int = 3,
    suite: Optional[Dict[str, Scenario]] = None,
    clock: Callable[[], float] = time.perf_counter,
    progress: Optional[Callable[[str], None]] = None,
    profile_phases: bool = False,
) -> Dict[str, Any]:
    """Run the suite ``repeats`` times per scenario; returns the artifact
    document (see the module docstring for the layout).

    ``suite`` overrides the pinned scenario registry (tests inject tiny
    synthetic scenarios); ``progress`` receives one line per finished
    scenario.

    ``profile_phases`` adds one *extra* (untimed) profiled run per
    scenario and records the top self-time phase paths under a separate
    ``phases`` key — deliberately not in ``meta``, which must stay a
    pure determinism fingerprint — so the compare gate can say *which*
    span paths a regression landed in, not just that one happened.
    """
    from repro.fastpath import resolve_kernel_backend
    from repro.telemetry.provenance import collect_provenance

    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    suite = suite if suite is not None else scenarios()
    selected = list(names) if names is not None else list(suite)
    unknown = [n for n in selected if n not in suite]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(suite)}"
        )
    doc: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "repeats": repeats,
        "kernel_backend": resolve_kernel_backend(),
        "provenance": collect_provenance(command="bench"),
        "scenarios": {},
    }
    for name in selected:
        scenario = suite[name]
        seconds: List[float] = []
        meta: Dict[str, Any] = {}
        for _ in range(repeats):
            start = clock()
            meta = scenario.fn(None) or {}
            seconds.append(clock() - start)
        doc["scenarios"][name] = {
            "description": scenario.description,
            "seconds": [round(s, 6) for s in seconds],
            "min_seconds": round(min(seconds), 6),
            "median_seconds": round(statistics.median(seconds), 6),
            "meta": meta,
        }
        if profile_phases:
            from repro.profiling.profiler import PhaseProfiler

            profiler = PhaseProfiler(clock=clock)
            scenario.fn(profiler)
            ranked = sorted(
                profiler.tree().items(),
                key=lambda item: (-item[1].self_seconds, item[0]),
            )
            doc["scenarios"][name]["phases"] = {
                "/".join(path): round(stats.self_seconds, 6)
                for path, stats in ranked[:8]
            }
        if progress is not None:
            progress(
                f"{name:<16} min {min(seconds) * 1e3:8.1f}ms  "
                f"median {statistics.median(seconds) * 1e3:8.1f}ms  "
                f"({repeats}x)"
            )
    return doc


def bench_filename(doc: Dict[str, Any]) -> str:
    """``BENCH_<git-sha>.json`` (the ``-dirty`` suffix survives: a dirty
    tree's numbers should never be mistaken for the commit's)."""
    sha = doc.get("provenance", {}).get("git_sha", "unknown")
    return f"BENCH_{sha}.json"


def write_bench(doc: Dict[str, Any], out_dir: PathLike = ".") -> Path:
    """Write the artifact into ``out_dir`` (created if absent); returns
    the path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / bench_filename(doc)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_bench(path: PathLike) -> Dict[str, Any]:
    """Load and schema-check a BENCH document."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != BENCH_SCHEMA:
        raise ConfigError(
            f"{path}: schema {schema!r} does not match {BENCH_SCHEMA!r}; "
            "regenerate the baseline with `repro bench`"
        )
    if not isinstance(doc.get("scenarios"), dict):
        raise ConfigError(f"{path}: missing 'scenarios' mapping")
    return doc
