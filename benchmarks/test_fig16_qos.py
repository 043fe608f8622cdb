"""F16 — Figure 16: QoS support in MPS, BP and UGPU.

The compute-bound application is high-priority with a 0.75 NP target.
Paper headlines:

* BP and UGPU meet the QoS target for *all* workloads (isolation);
* MPS breaks the target for some workloads (memory contention);
* UGPU beats QoS-aware BP by 33.7% STP by handing the spare channels to
  the low-priority application.
"""

import statistics

import pytest
from conftest import HORIZON, print_series

from repro import (
    BPPolicy,
    MPSPolicy,
    MultitaskSystem,
    QoSTarget,
    UGPUPolicy,
    build_mix,
)
from repro.workloads import heterogeneous_pairs

QOS_NP = 0.75
#: Allow a small whole-run measurement slack (the paper evaluates the
#: target against steady-state progress).
QOS_SLACK = 0.97


def qos_pairs():
    """(memory-bound, compute-bound) with the compute-bound app (id 1)
    high-priority."""
    return heterogeneous_pairs()


def run_qos(policy, pair):
    apps = build_mix(list(pair)).applications
    if policy == "MPS":
        # Offline analysis gives the high-priority app 60 SMs (paper).
        system = MultitaskSystem(
            apps, policy=MPSPolicy(sm_assignment={1: 60, 0: 20})
        )
    elif policy == "BP":
        # QoS-aware BP: high-priority app gets the big partition.  Our
        # mixes put the high-priority (compute-bound) app second, so we
        # construct the partition with qos_big_first on the reordered mix.
        apps = build_mix([pair[1], pair[0]]).applications
        system = MultitaskSystem(apps, policy=BPPolicy(qos_big_first=True))
    else:
        system = MultitaskSystem(
            apps, policy=UGPUPolicy(qos=QoSTarget(app_id=1, target_np=QOS_NP))
        )
    return system.run(HORIZON, mix_name="_".join(pair))


def high_priority_np(policy, result, pair):
    name = pair[1]
    return next(r.normalized_progress for r in result.runs if r.name == name)


@pytest.fixture(scope="module")
def results():
    pairs = qos_pairs()
    return {
        policy: [(pair, run_qos(policy, pair)) for pair in pairs]
        for policy in ("MPS", "BP", "UGPU")
    }


def test_fig16_qos_satisfaction(benchmark, results):
    def count_violations():
        out = {}
        for policy, runs in results.items():
            nps = [high_priority_np(policy, r, pair) for pair, r in runs]
            out[policy] = (
                sum(1 for np_value in nps if np_value < QOS_NP * QOS_SLACK),
                min(nps),
            )
        return out

    violations = benchmark(count_violations)
    rows = [("policy", "violations / 50", "min high-priority NP")]
    for policy, (count, minimum) in violations.items():
        rows.append((policy, count, f"{minimum:.3f}"))
    print_series(f"Figure 16: QoS target {QOS_NP} NP", rows)

    # Isolation-based designs always meet the target.
    assert violations["BP"][0] == 0
    assert violations["UGPU"][0] == 0
    # MPS's shared memory breaks it for some workloads.
    assert violations["MPS"][0] > 0


def test_fig16_ugpu_stp_above_qos_bp(benchmark, results):
    def summarize():
        bp = [r.stp for _, r in results["BP"]]
        ugpu = [r.stp for _, r in results["UGPU"]]
        return statistics.fmean(u / b - 1 for u, b in zip(ugpu, bp))

    gain = benchmark(summarize)
    print(f"\n  UGPU vs QoS-aware BP STP: {gain:+.1%} (paper +33.7%)")
    assert gain > 0.10


def test_fig16_mps_sometimes_wins_raw_stp(benchmark, results):
    """MPS's memory sharing can beat UGPU's isolation in raw STP for some
    workloads — the paper's closing observation."""

    def count():
        wins = 0
        for (_, mps), (_, ugpu) in zip(results["MPS"], results["UGPU"]):
            if mps.stp > ugpu.stp:
                wins += 1
        return wins

    wins = benchmark(count)
    total = len(results["MPS"])
    print(f"\n  MPS beats UGPU in raw STP on {wins}/{total} workloads")
    assert 0 < wins < total
