"""Extension E2 — multi-GPU cluster utilization (paper Section 6.6).

"UGPU can be utilized in multi-GPU systems ... idle resources can then be
allocated to other tasks launched by different users, thus enhancing the
utilization of cloud GPU clusters."  This bench quantifies that claim:
demand-aware tenant placement + per-node UGPU slicing vs class-blind
placement + balanced partitioning.
"""

import pytest
from conftest import HORIZON, print_series

from repro import build_application
from repro.cluster import ClusterScheduler, PlacementPolicy
from repro.exec.registry import bp, ugpu


def tenant_jobs():
    """Eight tenants: four memory-bound, four compute-bound.

    The arrival order is adversarial for class-blind first-fit
    placement (node i receives jobs 2i and 2i+1, pairing same-class
    tenants), the situation a real scheduler faces when tenants arrive
    in bursts of similar jobs.
    """
    abbrs = ["PVC", "LBM", "DXTC", "CP", "LAVAMD", "EULER3D", "MRI-Q", "PF"]
    return [build_application(a, app_id=i) for i, a in enumerate(abbrs)]


def run_configuration(placement, slicing):
    cluster = ClusterScheduler(num_nodes=4, tenants_per_node=2)
    return cluster.schedule_and_run(
        tenant_jobs(), placement=placement,
        slicing_policy=slicing, total_cycles=HORIZON,
    )


def test_cluster_policy_matrix(benchmark):
    def sweep():
        return {
            ("first-fit", "BP"): run_configuration(
                PlacementPolicy.FIRST_FIT, bp
            ).cluster_stp,
            ("first-fit", "UGPU"): run_configuration(
                PlacementPolicy.FIRST_FIT, ugpu
            ).cluster_stp,
            ("demand-aware", "BP"): run_configuration(
                PlacementPolicy.DEMAND_AWARE, bp
            ).cluster_stp,
            ("demand-aware", "UGPU"): run_configuration(
                PlacementPolicy.DEMAND_AWARE, ugpu
            ).cluster_stp,
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [("placement", "slicing", "cluster STP")]
    for (placement, slicing), stp in results.items():
        rows.append((placement, slicing, f"{stp:.3f}"))
    print_series("4-node cluster, 8 tenants", rows)

    # UGPU slicing helps under any placement...
    assert results[("demand-aware", "UGPU")] > results[("demand-aware", "BP")]
    # ...and demand-aware placement unlocks more of it (every node gets a
    # complementary pair to trade resources within).
    assert results[("demand-aware", "UGPU")] >= results[("first-fit", "UGPU")]
    # The full stack beats the class-blind balanced status quo clearly.
    baseline = results[("first-fit", "BP")]
    best = results[("demand-aware", "UGPU")]
    print(f"\n  full stack vs status quo: {best / baseline - 1:+.1%}")
    assert best > 1.05 * baseline


def test_cluster_scales_with_nodes(benchmark):
    def sweep():
        out = {}
        for nodes in (2, 4):
            cluster = ClusterScheduler(num_nodes=nodes, tenants_per_node=2)
            jobs = tenant_jobs()[: nodes * 2]
            out[nodes] = cluster.schedule_and_run(
                jobs, total_cycles=HORIZON
            ).cluster_stp
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("Cluster STP by node count",
                 [(n, f"{s:.3f}") for n, s in results.items()])
    assert results[4] > results[2]
