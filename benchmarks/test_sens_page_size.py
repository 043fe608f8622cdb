"""S1 — Page-size sensitivity (paper Sections 4.3 and 5).

The Figure 8 mapping idea works with different page sizes: larger pages
stripe more columns per bank-group slice, so MIGRATION counts scale
linearly while the per-page cost stays proportional — the *per-byte*
migration cost is flat.
"""

import pytest
from conftest import print_series

from repro import MigrationCostModel, MigrationMode, PageMoveAddressMapping


PAGE_SIZES = (4096, 8192, 16384, 32768)


def test_page_size_migration_scaling(benchmark):
    def sweep():
        out = {}
        for size in PAGE_SIZES:
            mapping = PageMoveAddressMapping(page_size=size)
            cost = MigrationCostModel(mapping=mapping)
            out[size] = (
                mapping.migrations_per_page,
                cost.page_cycles(MigrationMode.PPMM),
            )
        return out

    results = benchmark(sweep)
    rows = [("page size", "MIGRATIONs/page", "PPMM cycles/page", "cycles/KB")]
    for size, (commands, cycles) in results.items():
        rows.append((size, commands, f"{cycles:.0f}",
                     f"{cycles / (size / 1024):.1f}"))
    print_series("Page-size sensitivity", rows)

    # Command count scales linearly with page size (32 at 4 KB).
    assert results[4096][0] == 32
    for size in PAGE_SIZES:
        assert results[size][0] == 32 * size // 4096

    # Per-byte PPMM cost is flat: doubling the page doubles the cycles.
    base = results[4096][1] / 4096
    for size in PAGE_SIZES[1:]:
        assert results[size][1] / size == pytest.approx(base, rel=0.01)


def test_page_size_confinement_invariant(benchmark):
    """Every page size keeps the one-channel-per-page invariant that
    makes intra-stack migration possible."""

    def check():
        out = {}
        for size in PAGE_SIZES:
            mapping = PageMoveAddressMapping(page_size=size)
            channels = set()
            for offset in range(0, size, 128):
                channels.add(mapping.decode((3 << (size.bit_length() - 1)) + offset).channel)
            out[size] = len(channels)
        return out

    spread = benchmark(check)
    print_series("Channels touched by one page", list(spread.items()))
    assert all(count == 1 for count in spread.values())


def test_page_size_end_to_end_stability(benchmark):
    """UGPU's STP advantage survives a different migration page size (the
    epoch model's costs shift proportionally)."""
    from conftest import run_policy

    def run():
        out = {}
        for size in (4096, 16384):
            from repro import MultitaskSystem, UGPUPolicy, build_mix
            from repro.pagemove import MigrationCostModel, PageMoveAddressMapping
            apps = build_mix(["PVC", "DXTC"]).applications
            policy = UGPUPolicy()
            system = MultitaskSystem(apps, policy=policy)
            policy.migration_cost = MigrationCostModel(
                mapping=PageMoveAddressMapping(page_size=size)
            )
            policy.page_size = size
            out[size] = system.run(25_000_000).stp
        return out

    stps = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series("UGPU STP by page size", [(s, f"{v:.3f}") for s, v in stps.items()])
    assert stps[16384] == pytest.approx(stps[4096], rel=0.05)
