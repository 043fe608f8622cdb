"""S3 — Epoch-length sensitivity (paper Section 3.3).

The paper uses 5M-cycle epochs and argues the partitioning algorithm's
latency (<= 3388 cycles) hides behind any reasonable epoch.  Shorter
epochs react faster but repartition (and pay flush/migration) more often;
longer epochs amortize overhead but adapt slower.
"""

import pytest
from conftest import HORIZON, print_series

from repro import (
    AlgorithmCostModel,
    BPPolicy,
    MultitaskSystem,
    UGPUPolicy,
    build_mix,
)

EPOCHS = (1_000_000, 2_500_000, 5_000_000, 12_500_000)


def test_epoch_length_sweep(benchmark):
    def sweep():
        out = {}
        bp = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=BPPolicy()
        ).run(HORIZON)
        for epoch in EPOCHS:
            apps = build_mix(["PVC", "DXTC"]).applications
            result = MultitaskSystem(
                apps, epoch_cycles=epoch, policy=UGPUPolicy()
            ).run(HORIZON)
            out[epoch] = (result.stp / bp.stp - 1, result.repartitions)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [("epoch cycles", "STP gain vs BP", "repartitions")]
    for epoch, (gain, reparts) in results.items():
        rows.append((f"{epoch:,}", f"{gain:+.1%}", reparts))
    print_series("Epoch-length sensitivity (PVC_DXTC)", rows)

    # Every epoch length beats BP on this strongly heterogeneous pair.
    assert all(gain > 0.10 for gain, _ in results.values())
    # The paper's 5M default is within a few points of the best choice.
    best = max(gain for gain, _ in results.values())
    assert results[5_000_000][0] > best - 0.08


def test_algorithm_latency_hidden_for_all_epochs(benchmark):
    model = AlgorithmCostModel()

    def check():
        return {epoch: model.hidden_by_epoch(epoch) for epoch in EPOCHS}

    hidden = benchmark(check)
    print_series(
        "Algorithm latency (3388 cycles) hidden by epoch?",
        list(hidden.items()),
    )
    assert all(hidden.values())


def test_repartitioning_active_across_epoch_lengths(benchmark):
    """A multi-kernel mix triggers at least one online repartition at
    every epoch length, and the decision latency stays hidden."""

    def count():
        out = {}
        for epoch in (1_000_000, 5_000_000, 12_500_000):
            apps = build_mix(["BH", "DXTC"]).applications  # multi-kernel app
            out[epoch] = MultitaskSystem(
                apps, epoch_cycles=epoch, policy=UGPUPolicy()
            ).run(HORIZON).repartitions
        return out

    reparts = benchmark.pedantic(count, rounds=1, iterations=1)
    print_series("Repartition count by epoch length (BH_DXTC)",
                 list(reparts.items()))
    assert all(count >= 1 for count in reparts.values())
