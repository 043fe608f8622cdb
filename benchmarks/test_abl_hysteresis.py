"""Ablation A5 — repartition hysteresis.

Section 3.3: for workloads whose epoch behaviour barely changes,
"reallocation overhead could outweigh its benefits, potentially degrading
overall performance."  This ablation sweeps the hysteresis bar (minimum
estimated STP gain required to apply a new partition) and shows:

* zero hysteresis (the paper's behaviour) captures the full gain on
  strongly heterogeneous mixes;
* a small bar suppresses churn on near-balanced mixes without giving up
  the big wins;
* a huge bar degenerates to BP.
"""

import statistics

import pytest
from conftest import HORIZON, print_series

from repro import BPPolicy, MultitaskSystem, UGPUPolicy, build_mix
from repro.workloads import heterogeneous_pairs

BARS = (0.0, 0.03, 0.10, 1.0)


def test_hysteresis_sweep(benchmark):
    pairs = heterogeneous_pairs()[::7]

    def sweep():
        out = {}
        bp = [
            MultitaskSystem(
                build_mix(list(p)).applications, policy=BPPolicy()
            ).run(HORIZON)
            for p in pairs
        ]
        for bar in BARS:
            gains, reparts, suppressed = [], 0, 0
            for pair, base in zip(pairs, bp):
                system = MultitaskSystem(
                    build_mix(list(pair)).applications,
                    policy=UGPUPolicy(hysteresis=bar),
                )
                result = system.run(HORIZON)
                gains.append(result.stp / base.stp - 1)
                reparts += result.repartitions
                suppressed += system.policy.suppressed_repartitions
            out[bar] = (statistics.fmean(gains), reparts, suppressed)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [("hysteresis", "mean STP gain", "repartitions", "suppressed")]
    for bar, (gain, reparts, suppressed) in results.items():
        rows.append((bar, f"{gain:+.1%}", reparts, suppressed))
    print_series("Ablation: repartition hysteresis", rows)

    # Zero hysteresis (paper behaviour) and a small bar deliver similar
    # gains; an absurd bar forfeits (nearly) everything.
    assert results[0.0][0] > 0.15
    assert results[0.03][0] > results[0.0][0] - 0.05
    assert results[1.0][0] < 0.05
    # The bar visibly suppresses reallocations as it rises.
    reparts_by_bar = [results[bar][1] for bar in BARS]
    assert reparts_by_bar == sorted(reparts_by_bar, reverse=True)
