#!/usr/bin/env python3
"""Cloud GPU scheduler scenario: pick a slicing policy per tenant mix.

A cloud operator receives batches of tenant jobs with different
characteristics and must choose how to share each physical GPU.  This
example sweeps several representative tenant mixes through BP, MPS,
CD-Search and UGPU, then prints the policy ranking per mix — the decision
table a scheduler would consult (paper Sections 6.4-6.7: UGPU when
isolation is required, MPS when sharing is acceptable).

Run:  python examples/cloud_scheduler.py
"""

from repro import (
    BPPolicy,
    CDSearchPolicy,
    MPSPolicy,
    MultitaskSystem,
    QoSTarget,
    UGPUPolicy,
    build_mix,
)

HORIZON = 25_000_000

TENANT_MIXES = {
    "analytics + rendering": ["PVC", "DXTC"],          # strongly heterogeneous
    "two streaming tenants": ["PVC", "LAVAMD"],        # both memory-bound
    "two solver tenants": ["CP", "MRI-Q"],             # both compute-bound
    "mixed four-tenant node": ["PVC", "LBM", "DXTC", "CP"],
}


def evaluate(mix_name, abbrs):
    policies = {
        "BP": BPPolicy(),
        "MPS": MPSPolicy(),
        "CD-Search": CDSearchPolicy(),
        "UGPU": UGPUPolicy(),
    }
    return {
        name: MultitaskSystem(build_mix(abbrs).applications, policy=policy)
        .run(HORIZON, mix_name=mix_name)
        for name, policy in policies.items()
    }


def main() -> None:
    print("Cloud slicing decision table (higher STP is better)\n")
    for mix_name, abbrs in TENANT_MIXES.items():
        results = evaluate(mix_name, abbrs)
        ranking = sorted(results.items(), key=lambda kv: -kv[1].stp)
        print(f"{mix_name}  ({'+'.join(abbrs)})")
        for name, result in ranking:
            marker = "  <- pick" if name == ranking[0][0] else ""
            print(f"    {name:<10} STP {result.stp:.3f}  ANTT {result.antt:.2f}"
                  f"  min-NP {result.min_np:.2f}{marker}")
        print()

    # A QoS-sensitive tenant changes the calculus: MPS may win raw STP but
    # cannot guarantee the floor; UGPU can.
    print("QoS-sensitive tenant (DXTC needs 0.75 normalized progress):")
    apps = build_mix(["PVC", "DXTC"]).applications
    qos = MultitaskSystem(
        apps, policy=UGPUPolicy(qos=QoSTarget(app_id=1, target_np=0.75))
    ).run(HORIZON)
    mps = MultitaskSystem(
        build_mix(["PVC", "DXTC"]).applications,
        policy=MPSPolicy(sm_assignment={1: 60, 0: 20}),
    ).run(HORIZON)
    for name, result in (("UGPU+QoS", qos), ("MPS", mps)):
        hp = next(r for r in result.runs if r.name == "DXTC")
        verdict = "meets" if hp.normalized_progress >= 0.73 else "VIOLATES"
        print(f"    {name:<10} high-priority NP {hp.normalized_progress:.2f} "
              f"({verdict} target)  STP {result.stp:.3f}")


if __name__ == "__main__":
    main()
