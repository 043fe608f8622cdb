"""Ablation A1 — demand-aware algorithm vs. exhaustive oracle.

DESIGN.md asks how close the O(iterations) demand-aware redistribution
gets to the offline-optimal partition found by exhaustively sweeping all
(SMs, channels) splits under the same performance model.
"""

import statistics

import pytest
from conftest import HORIZON, print_series

from repro import (
    GPUConfig,
    MultitaskSystem,
    UGPUPolicy,
    build_application,
    build_mix,
)
from repro.core.oracle import OraclePartitioner
from repro.workloads import heterogeneous_pairs


def test_oracle_gap(benchmark):
    oracle = OraclePartitioner(GPUConfig())
    pairs = heterogeneous_pairs()[::5]  # representative subsample

    def compute_gaps():
        gaps = []
        for mb, cb in pairs:
            kernels = {
                0: build_application(mb).kernels[0],
                1: build_application(cb).kernels[0],
            }
            best = oracle.best_partition(kernels).stp
            achieved = MultitaskSystem(
                build_mix([mb, cb]).applications,
                policy=UGPUPolicy(offline=True),
            ).run(HORIZON).stp
            gaps.append((f"{mb}_{cb}", best, achieved, achieved / best))
        return gaps

    gaps = benchmark.pedantic(compute_gaps, rounds=1, iterations=1)
    rows = [("mix", "oracle STP", "demand-aware STP", "ratio")]
    for name, oracle, achieved, ratio in gaps:
        rows.append((name, f"{oracle:.2f}", f"{achieved:.2f}", f"{ratio:.2f}"))
    mean_ratio = statistics.fmean(r for _, _, _, r in gaps)
    rows.append(("MEAN", "", "", f"{mean_ratio:.2f}"))
    print_series("Ablation: demand-aware vs exhaustive oracle", rows)

    # The cheap iterative algorithm captures most of the oracle's value.
    assert mean_ratio > 0.85
    assert all(ratio > 0.7 for _, _, _, ratio in gaps)
