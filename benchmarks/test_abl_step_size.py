"""Ablation A3 — reallocation step size.

The paper's algorithm moves resources in fixed steps each iteration.
Sweeps the SM step: tiny steps converge slowly (may hit the iteration
cap); huge steps overshoot the balance point.
"""

import pytest
from conftest import HORIZON, print_series

from repro import BPPolicy, MultitaskSystem, UGPUPolicy, build_mix


def test_sm_step_sweep(benchmark):
    def sweep():
        bp = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=BPPolicy()
        ).run(HORIZON)
        out = {}
        for step in (2, 4, 8, 16):
            apps = build_mix(["PVC", "DXTC"]).applications
            result = MultitaskSystem(
                apps, policy=UGPUPolicy(sm_step=step)
            ).run(HORIZON)
            out[step] = (result.stp / bp.stp - 1, result.repartitions)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [("sm_step", "STP gain vs BP", "repartitions")]
    for step, (gain, reparts) in results.items():
        rows.append((step, f"{gain:+.1%}", reparts))
    print_series("Ablation: SM reallocation step size (PVC_DXTC)", rows)

    # All step sizes improve on BP for a strongly heterogeneous pair.
    assert all(gain > 0.05 for gain, _ in results.values())
    # The default (4) is within a few points of the best.
    best = max(gain for gain, _ in results.values())
    assert results[4][0] > best - 0.08


def test_iteration_cap_binds_only_tiny_steps(benchmark):
    """With a 20-iteration cap, a 2-SM step may stop short of balance
    while an 8-SM step converges comfortably."""
    from repro.core import DemandAwarePartitioner, PartitionState
    from repro.core.profiler import AppProfile, EpochProfiler
    from repro.gpu import GPUConfig

    config = GPUConfig()
    profiler = EpochProfiler(config)

    def profile(app_id, apki, hit):
        return AppProfile(
            app_id=app_id, ipc_max_per_sm=64.0, apki_llc=apki,
            llc_hit_rate=hit,
            bw_demand_per_sm=profiler.bw_demand_per_sm(64.0, apki),
            bw_supply_per_mc=profiler.bw_supply_per_mc(hit),
        )

    profiles = {0: profile(0, 6.4, 0.25), 1: profile(1, 1.2, 0.9997)}

    def iterations_for(step):
        partitioner = DemandAwarePartitioner(
            PartitionState.even([0, 1]), sm_step=step, gpu_config=config
        )
        return partitioner.compute(profiles).iterations

    counts = benchmark(lambda: {s: iterations_for(s) for s in (2, 4, 8)})
    print_series("Iterations to converge by step size", list(counts.items()))
    assert counts[2] >= counts[4] >= counts[8]
