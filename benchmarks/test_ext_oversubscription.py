"""Extension E1 — memory-oversubscribed workloads.

The paper's evaluation excludes oversubscription but specifies the
expected behaviour (Sections 3.2, 5): such applications "would be
classified as memory-bound applications, and additional memory channels
would be allocated to reduce page faults and swapping overhead, thus
improving performance."  This bench runs that scenario.
"""

import pytest
from conftest import HORIZON, print_series

from repro import BPPolicy, MultitaskSystem, UGPUPolicy
from repro.gpu import Application, Kernel
from repro.units import GB

TOTAL_MEMORY = 16 * GB


def hog(footprint_gb):
    return Application(0, "HOG", [Kernel(
        name="hog", ipc_per_sm=64.0, apki_llc=6.0, llc_hit_rate=0.25,
        footprint_bytes=int(footprint_gb * GB), instructions=6_000_000_000,
    )])


def tiny():
    return Application(1, "TINY", [Kernel(
        name="tiny", ipc_per_sm=64.0, apki_llc=1.2, llc_hit_rate=0.9997,
        footprint_bytes=20 * 1024 * 1024, instructions=6_000_000_000,
    )])


def test_oversubscription_scenario(benchmark):
    def sweep():
        out = {}
        for footprint in (6, 10, 12, 14):
            bp = MultitaskSystem(
                [hog(footprint), tiny()],
                total_memory_bytes=TOTAL_MEMORY,
                policy=BPPolicy(),
            ).run(HORIZON)
            system = MultitaskSystem(
                [hog(footprint), tiny()],
                total_memory_bytes=TOTAL_MEMORY,
                policy=UGPUPolicy(),
            )
            ugpu = system.run(HORIZON)
            out[footprint] = (
                bp.stp, ugpu.stp, system.apps[0].allocation.channels
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [("working set", "BP STP", "UGPU STP", "gain", "HOG channels")]
    for footprint, (bp_stp, ugpu_stp, channels) in results.items():
        rows.append((f"{footprint} GB", f"{bp_stp:.3f}", f"{ugpu_stp:.3f}",
                     f"{ugpu_stp / bp_stp - 1:+.1%}", channels))
    print_series("Oversubscription: 16 GB GPU, even split = 8 GB/app", rows)

    # The oversubscribed runs classify the hog memory-bound and grant it
    # channels (capacity travels with them).
    for footprint, (_, _, channels) in results.items():
        if footprint > 8:
            assert channels > 16
    # UGPU's gain grows once the working set stops fitting the even split:
    # the channels now buy both bandwidth *and* capacity.
    gains = {f: u / b - 1 for f, (b, u, _) in results.items()}
    # The gain peaks in the regime where UGPU's extra channels make the
    # working set fit (10-12 GB needs 20-24 channels' capacity)...
    assert gains[12] > 0.5
    assert gains[12] > gains[6]
    # ...and BP's absolute STP collapses once the even split stops
    # fitting, while UGPU holds its level until even 24 channels are not
    # enough (14 GB: both suffer, UGPU still ahead).
    assert results[12][0] < 0.7 * results[6][0]
    assert results[12][1] > 0.85 * results[6][1]
    assert results[14][1] > results[14][0]


def test_capacity_floor_respected(benchmark):
    """The partitioner never shrinks an app below the channels its
    working set needs."""

    def run():
        system = MultitaskSystem(
            [hog(12), tiny()],
            total_memory_bytes=TOTAL_MEMORY,
            policy=UGPUPolicy(),
        )
        system.run(HORIZON)
        return system.apps[0].allocation

    alloc = benchmark.pedantic(run, rounds=1, iterations=1)
    # 12 GB needs >= 24 of 32 channels' capacity.
    assert alloc.channels >= 24
