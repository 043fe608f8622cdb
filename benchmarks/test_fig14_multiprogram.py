"""F14 — Figure 14: four- and eight-program workload mixes.

Paper headlines (Section 6.5):

* four-program mixes: UGPU improves STP by 38.3% and ANTT by 101.8% —
  *more* than two-program mixes, since more memory-/compute-bound apps
  give more reallocation room;
* eight-program mixes (200 random, 4 memory-bound + 4 compute-bound):
  +30.3% STP / +89.3% ANTT — slightly less than four programs, as each
  application's smaller share shrinks the reallocation space.
"""

import statistics

import pytest
from conftest import HORIZON, print_series

from repro import BPPolicy, MultitaskSystem, UGPUPolicy, build_mix
from repro.workloads import eight_program_mixes, four_program_mixes, heterogeneous_pairs


def run_mixes(mixes):
    results = []
    for mix in mixes:
        bp = MultitaskSystem(
            build_mix(mix.abbrs).applications, policy=BPPolicy()
        ).run(HORIZON)
        ugpu = MultitaskSystem(
            build_mix(mix.abbrs).applications, policy=UGPUPolicy()
        ).run(HORIZON)
        results.append((bp, ugpu))
    return results


@pytest.fixture(scope="module")
def two_program_gain():
    gains = []
    for pair in heterogeneous_pairs()[::5]:  # representative subsample
        bp = MultitaskSystem(
            build_mix(pair).applications, policy=BPPolicy()
        ).run(HORIZON)
        ugpu = MultitaskSystem(
            build_mix(pair).applications, policy=UGPUPolicy()
        ).run(HORIZON)
        gains.append(ugpu.stp / bp.stp - 1)
    return statistics.fmean(gains)


def test_fig14_four_program_mixes(benchmark, two_program_gain):
    mixes = four_program_mixes(count=20)
    pairs = benchmark.pedantic(run_mixes, args=(mixes,), rounds=1, iterations=1)
    stp_gain = statistics.fmean(u.stp / b.stp - 1 for b, u in pairs)
    antt_gain = statistics.fmean(b.antt / u.antt - 1 for b, u in pairs)
    print_series("Figure 14: four-program mixes", [
        ("STP gain", f"{stp_gain:+.1%}  (paper +38.3%)"),
        ("ANTT gain", f"{antt_gain:+.1%}  (paper +101.8%)"),
        ("two-program reference", f"{two_program_gain:+.1%}"),
    ])
    assert stp_gain > 0.10
    assert antt_gain > 0.10
    # More co-runners -> more reallocation room than two-program mixes.
    assert stp_gain > two_program_gain - 0.05


def test_fig14_eight_program_mixes(benchmark):
    mixes = eight_program_mixes(count=20)
    pairs = benchmark.pedantic(run_mixes, args=(mixes,), rounds=1, iterations=1)
    stp_gain = statistics.fmean(u.stp / b.stp - 1 for b, u in pairs)
    antt_gain = statistics.fmean(b.antt / u.antt - 1 for b, u in pairs)
    print_series("Figure 14: eight-program mixes", [
        ("STP gain", f"{stp_gain:+.1%}  (paper +30.3%)"),
        ("ANTT gain", f"{antt_gain:+.1%}  (paper +89.3%)"),
    ])
    assert stp_gain > 0.05
    assert antt_gain > 0.05


def test_fig14_every_mix_gains(benchmark):
    """UGPU never loses STP on the sampled multiprogram mixes."""
    mixes = four_program_mixes(count=8) + eight_program_mixes(count=8)
    pairs = benchmark.pedantic(run_mixes, args=(mixes,), rounds=1, iterations=1)
    assert all(u.stp >= 0.98 * b.stp for b, u in pairs)
