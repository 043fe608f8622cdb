"""Shared fixtures and helpers for the experiment benches.

Every bench reproduces one table or figure from the paper's evaluation:
it regenerates the figure's series (printed with ``-s``), asserts the
*shape* properties the paper reports (who wins, orderings, crossover
positions), and times the underlying computation via pytest-benchmark.

Run the whole harness with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
import statistics
from typing import List, Sequence

import pytest

from repro.core.system import SystemResult
from repro.exec import SweepExecutor, SweepJob
from repro.workloads import heterogeneous_pairs

#: The paper's simulation horizon (Section 5).
HORIZON = 25_000_000

#: Benches fan sweeps out over this many workers (REPRO_BENCH_JOBS=N to
#: raise it; the default stays in-process so timings are comparable).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def run_policy(policy: str, abbrs: Sequence[str], **kwargs) -> SystemResult:
    """Instantiate and run one policy on a fresh mix.

    ``policy`` is any name the :mod:`repro.exec` registry knows
    ("BP", "CD", "UGPU-offline", ...).
    """
    return SweepJob.build(policy, abbrs, HORIZON, kwargs).run()


def sweep_policy(policy: str, pairs=None, jobs: int = None,
                 **kwargs) -> List[SystemResult]:
    """Run one policy across workload pairs (default: all 50
    heterogeneous mixes) through the sweep executor."""
    selected = pairs if pairs is not None else heterogeneous_pairs()
    sweep_jobs = [SweepJob.build(policy, pair, HORIZON, kwargs)
                  for pair in selected]
    executor = SweepExecutor(jobs=jobs if jobs is not None else BENCH_JOBS)
    return executor.run(sweep_jobs)


def mean_gain(results: Sequence[SystemResult],
              baseline: Sequence[SystemResult]) -> float:
    """Mean relative STP gain over a baseline, as a fraction."""
    gains = [r.stp / b.stp - 1.0 for r, b in zip(results, baseline)]
    return statistics.fmean(gains)


def mean_antt_gain(results: Sequence[SystemResult],
                   baseline: Sequence[SystemResult]) -> float:
    """Mean ANTT improvement (baseline/result - 1; positive is better)."""
    gains = [b.antt / r.antt - 1.0 for r, b in zip(results, baseline)]
    return statistics.fmean(gains)


def print_series(title: str, rows: Sequence[tuple]) -> None:
    """Print a labelled series the way the paper's figures tabulate it."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


@pytest.fixture
def horizon():
    return HORIZON
