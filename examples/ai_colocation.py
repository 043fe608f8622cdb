#!/usr/bin/env python3
"""AI workload co-location (paper Section 6.6).

Pairs each Tango network (AlexNet, ResNet, SqueezeNet, GRU, LSTM) with a
compute-bound benchmark and shows how UGPU adapts slice sizes to the
network's layer phases: channels flow to the memory-hungry fully
connected / recurrent phases and SMs to the convolution phases.

Run:  python examples/ai_colocation.py
"""

from repro import (
    BPPolicy,
    MultitaskSystem,
    UGPUPolicy,
    build_ai_application,
    build_application,
)

HORIZON = 25_000_000


def run_pair(model_name: str, partner: str):
    def apps():
        return [
            build_ai_application(model_name, app_id=0),
            build_application(partner, app_id=1),
        ]

    bp = MultitaskSystem(apps(), policy=BPPolicy()).run(HORIZON)
    system = MultitaskSystem(apps(), policy=UGPUPolicy())
    ugpu = system.run(HORIZON)
    return bp, ugpu, system


def main() -> None:
    partner = "DXTC"
    print(f"AI networks co-located with {partner} (compute-bound), "
          f"{HORIZON:,} cycles\n")
    print(f"{'network':<12} {'BP STP':>7} {'UGPU STP':>9} {'gain':>7}   "
          f"final AI slice")
    for model_name in ("AlexNet", "ResNet", "SqueezeNet", "GRU", "LSTM"):
        bp, ugpu, system = run_pair(model_name, partner)
        alloc = system.apps[0].allocation
        print(f"{model_name:<12} {bp.stp:>7.3f} {ugpu.stp:>9.3f} "
              f"{ugpu.stp / bp.stp - 1:>+7.1%}   "
              f"{alloc.sms} SMs / {alloc.channels} MCs")

    print("\nWhy: the recurrent networks stream weight matrices every step,"
          "\nso UGPU hands them memory channels; convolution-heavy networks"
          "\nkeep more SMs.  Repartitioning tracks the layer phases online.")


if __name__ == "__main__":
    main()
