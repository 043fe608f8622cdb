"""Make the benchmark's modules importable: they live in ``bench/``, which
is a script directory rather than a package."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

#: Miniature sizes: every workload's structure, a fraction of its work.
MINI = {
    "paper": dict(pairs=[("BH", "CP"), ("BH", "DXTC")],
                  policies=["bp", "ugpu"], four=2, eight=2, het_pairs=2,
                  epochs=(5_000_000,), streams=1, horizon=10_000_000),
    "pagemove": dict(faults_per_app=600, fault_batches=4, reallocs=4,
                     hw_pages=8, hw_batches=2, waves=8, wave_requests=16,
                     hbm_batches=2, pages_per_channel=1024),
    "fleet_sparse": dict(nodes=8, horizon=20_000_000, interarrival=400_000),
    "fleet_dense": dict(nodes=6, horizon=20_000_000, interarrival=400_000,
                        jobs=1),
}


@pytest.fixture
def mini():
    return MINI


@pytest.fixture
def traced():
    """A tracer installed for one test, removed afterwards."""
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        yield tracer
    finally:
        uninstall()
