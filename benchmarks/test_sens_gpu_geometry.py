"""S4 — GPU-geometry sensitivity.

The paper evaluates one 80-SM / 4-stack machine; a mechanism worth
adopting must not be an artifact of that geometry.  This bench re-runs
the headline comparison on smaller and larger GPUs (2-stack/40-SM,
8-stack/160-SM... sized so the SM:channel proportion stays the paper's
2.5) and checks UGPU's advantage survives.
"""

import statistics

import pytest
from conftest import HORIZON, print_series

from repro import BPPolicy, GPUConfig, MultitaskSystem, UGPUPolicy, build_mix
from repro.hbm import HBMConfig
from repro.workloads import heterogeneous_pairs


def geometry(num_stacks: int) -> GPUConfig:
    """A balanced GPU scaled to ``num_stacks`` HBM stacks."""
    channels = num_stacks * 8
    sms = int(channels * 2.5)
    return GPUConfig(
        num_sms=sms,
        llc_size=channels * 2 * 16 * 48 * 128,   # 2 slices per channel
        llc_slices=channels * 2,
        noc_ports_sm=sms,
        noc_ports_mem=channels * 2,
        hbm=HBMConfig(
            num_stacks=num_stacks,
            total_bandwidth_gbps=900.0 * num_stacks / 4,
        ),
    )


GEOMETRIES = {2: geometry(2), 4: GPUConfig(), 8: geometry(8)}


def test_geometry_sweep(benchmark):
    pairs = heterogeneous_pairs()[::10]

    def sweep():
        out = {}
        for stacks, config in GEOMETRIES.items():
            gains = []
            for pair in pairs:
                bp = MultitaskSystem(
                    build_mix(list(pair)).applications,
                    config=config,
                    policy=BPPolicy(),
                ).run(HORIZON)
                ugpu = MultitaskSystem(
                    build_mix(list(pair)).applications,
                    config=config,
                    policy=UGPUPolicy(),
                ).run(HORIZON)
                gains.append(ugpu.stp / bp.stp - 1)
            out[stacks] = statistics.fmean(gains)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [("stacks", "SMs", "channels", "UGPU mean STP gain")]
    for stacks, gain in results.items():
        cfg = GEOMETRIES[stacks]
        rows.append((stacks, cfg.num_sms, cfg.num_channels, f"{gain:+.1%}"))
    print_series("GPU-geometry sensitivity", rows)

    # The mechanism wins on every geometry.
    assert all(gain > 0.08 for gain in results.values())


def test_scaled_configs_are_internally_consistent(benchmark):
    def validate_all():
        for config in GEOMETRIES.values():
            config.validate()
        return True

    assert benchmark(validate_all)
    for stacks, config in GEOMETRIES.items():
        assert config.num_channels == stacks * 8
        assert config.llc_slices_per_channel == 2
        # Per-channel bandwidth is geometry-invariant (same HBM parts).
        assert config.channel_bandwidth_bytes_per_cycle() == pytest.approx(
            GPUConfig().channel_bandwidth_bytes_per_cycle()
        )
