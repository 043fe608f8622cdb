"""F13 — Figure 13: comparison against BP (CD-Search).

CD-Search reallocates only SMs across BP instances.  Paper headlines:

* BP (CD-Search) improves STP by 11.2% over BP;
* UGPU beats BP (CD-Search) by 22.4% STP / 43.6% ANTT by also moving
  memory channels;
* the advantage grows with four-program workloads (25.4% / 56.1%).
"""

import statistics

import pytest
from conftest import mean_antt_gain, mean_gain, print_series, sweep_policy

from repro import CDSearchPolicy, MultitaskSystem, UGPUPolicy, build_mix
from repro.workloads import four_program_mixes


@pytest.fixture(scope="module")
def two_program():
    return {p: sweep_policy(p) for p in ("BP", "CD", "UGPU")}


def test_fig13_two_program_comparison(benchmark, two_program):
    def summarize():
        bp = two_program["BP"]
        return {
            "cd_vs_bp": mean_gain(two_program["CD"], bp),
            "ugpu_vs_cd": mean_gain(two_program["UGPU"], two_program["CD"]),
            "ugpu_antt_vs_cd": mean_antt_gain(two_program["UGPU"], two_program["CD"]),
        }

    gains = benchmark(summarize)
    print_series("Figure 13: two-program workloads", [
        ("BP(CD-Search) vs BP STP", f"{gains['cd_vs_bp']:+.1%}  (paper +11.2%)"),
        ("UGPU vs BP(CD-Search) STP", f"{gains['ugpu_vs_cd']:+.1%}  (paper +22.4%)"),
        ("UGPU vs BP(CD-Search) ANTT", f"{gains['ugpu_antt_vs_cd']:+.1%}  (paper +43.6%)"),
    ])
    # SM-only reallocation helps...
    assert 0.05 < gains["cd_vs_bp"] < 0.25
    # ...but moving channels too buys a further improvement.
    assert gains["ugpu_vs_cd"] > 0.03
    assert gains["ugpu_antt_vs_cd"] > 0.0


def test_fig13_four_program_advantage(benchmark):
    """With four programs the reallocation space grows and UGPU's edge
    over SM-only reallocation widens (paper: 25.4% STP)."""
    mixes = four_program_mixes(count=12)

    def run_all():
        out = []
        for mix in mixes:
            cd = MultitaskSystem(
                build_mix(mix.abbrs).applications, policy=CDSearchPolicy()
            ).run()
            ugpu = MultitaskSystem(
                build_mix(mix.abbrs).applications, policy=UGPUPolicy()
            ).run()
            out.append((cd, ugpu))
        return out

    pairs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    gain = statistics.fmean(u.stp / c.stp - 1 for c, u in pairs)
    print(f"\n  UGPU vs BP(CD-Search), 4-program: {gain:+.1%} (paper +25.4%)")
    assert gain > 0.05
