#!/usr/bin/env python3
"""Memory-oversubscribed tenant: channels carry capacity.

The paper excludes oversubscribed workloads from its evaluation but
states the expected behaviour (Sections 3.2, 5): a tenant whose working
set exceeds its allocated memory is classified memory-bound, and the
extra channels UGPU grants it bring *capacity* along with bandwidth,
cutting the 20 us far-fault overhead.  This example sweeps the working
set on a 16 GB GPU and shows the effect.

Run:  python examples/oversubscribed_tenant.py
"""

from repro import BPPolicy, MultitaskSystem, UGPUPolicy
from repro.gpu import Application, Kernel
from repro.units import GB

TOTAL_MEMORY = 16 * GB
HORIZON = 25_000_000


def hog(footprint_gb: float) -> Application:
    return Application(0, "HOG", [Kernel(
        name="scan", ipc_per_sm=64.0, apki_llc=6.0, llc_hit_rate=0.25,
        footprint_bytes=int(footprint_gb * GB), instructions=6_000_000_000,
    )])


def tiny() -> Application:
    return Application(1, "TINY", [Kernel(
        name="solve", ipc_per_sm=64.0, apki_llc=1.2, llc_hit_rate=0.9997,
        footprint_bytes=20 * 1024 * 1024, instructions=6_000_000_000,
    )])


def main() -> None:
    print("16 GB GPU; HOG co-runs with a tiny compute tenant.")
    print("Even split gives HOG 8 GB of capacity.\n")
    print(f"{'working set':>12} {'BP STP':>8} {'UGPU STP':>9} {'gain':>9}"
          f"   HOG slice")
    for footprint in (4, 8, 10, 12, 14):
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
        alloc = system.apps[0].allocation
        capacity_gb = 16 * alloc.channels / 32
        print(f"{footprint:>10}GB {bp.stp:>8.3f} {ugpu.stp:>9.3f} "
              f"{ugpu.stp / bp.stp - 1:>+9.1%}   "
              f"{alloc.sms} SMs / {alloc.channels} MCs "
              f"(= {capacity_gb:.0f} GB)")

    print("\nReading the table: once the working set exceeds 8 GB, BP's")
    print("fixed half-capacity thrashes through 20 us far-faults while")
    print("UGPU's channel grant makes the set fit — until even 24")
    print("channels (12 GB) are not enough and both policies degrade.")


if __name__ == "__main__":
    main()
