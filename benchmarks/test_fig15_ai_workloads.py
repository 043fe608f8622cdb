"""F15 — Figure 15: AI workloads.

Tango networks (AlexNet, ResNet, SqueezeNet, GRU, LSTM) co-executed with
compute-bound Table 2 benchmarks.  Paper: UGPU improves STP by 39.4% and
ANTT by 57.6% on average over BP by matching slices to each phase's
memory/compute demand.
"""

import statistics

import pytest
from conftest import HORIZON, print_series

from repro import (
    BPPolicy,
    MultitaskSystem,
    UGPUPolicy,
    build_ai_application,
    build_application,
)
from repro.workloads import AI_MODELS, COMPUTE_BOUND_ABBRS


def ai_mixes():
    """Every AI model paired with every compute-bound benchmark."""
    mixes = []
    for model_name in sorted(AI_MODELS):
        for cb in sorted(COMPUTE_BOUND_ABBRS):
            mixes.append((model_name, cb))
    return mixes


def run_pair(model_name, cb):
    def apps():
        return [
            build_ai_application(model_name, app_id=0),
            build_application(cb, app_id=1),
        ]

    bp = MultitaskSystem(
        apps(), policy=BPPolicy()
    ).run(HORIZON, mix_name=f"{model_name}_{cb}")
    ugpu = MultitaskSystem(
        apps(), policy=UGPUPolicy()
    ).run(HORIZON, mix_name=f"{model_name}_{cb}")
    return bp, ugpu


@pytest.fixture(scope="module")
def results():
    return [(m, c, *run_pair(m, c)) for m, c in ai_mixes()]


def test_fig15_ai_stp_antt(benchmark, results):
    def summarize():
        stp = statistics.fmean(u.stp / b.stp - 1 for _, _, b, u in results)
        antt = statistics.fmean(b.antt / u.antt - 1 for _, _, b, u in results)
        return stp, antt

    stp_gain, antt_gain = benchmark(summarize)
    rows = [("mix", "BP STP", "UGPU STP", "gain")]
    for model_name, cb, bp, ugpu in results[:10]:
        rows.append((f"{model_name}_{cb}", f"{bp.stp:.2f}", f"{ugpu.stp:.2f}",
                     f"{ugpu.stp / bp.stp - 1:+.1%}"))
    rows.append(("MEAN", "", "", f"{stp_gain:+.1%} (paper +39.4%)"))
    rows.append(("MEAN ANTT", "", "", f"{antt_gain:+.1%} (paper +57.6%)"))
    print_series("Figure 15: AI workloads", rows)

    assert stp_gain > 0.10
    assert antt_gain > 0.05


def test_fig15_recurrent_models_gain_most(benchmark, results):
    """GRU/LSTM are the most memory-bound networks and benefit most from
    extra channels."""

    def split():
        recurrent, feedforward = [], []
        for model_name, _, bp, ugpu in results:
            gain = ugpu.stp / bp.stp - 1
            if model_name in ("GRU", "LSTM"):
                recurrent.append(gain)
            else:
                feedforward.append(gain)
        return statistics.fmean(recurrent), statistics.fmean(feedforward)

    recurrent, feedforward = benchmark(split)
    print(f"\n  recurrent nets: {recurrent:+.1%}, feed-forward: {feedforward:+.1%}")
    assert recurrent > feedforward - 0.05
    assert recurrent > 0.15
