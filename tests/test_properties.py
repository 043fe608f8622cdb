"""Property-based tests (hypothesis) on core data structures and
invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DemandAwarePartitioner, PartitionState
from repro.core.profiler import AppProfile, EpochProfiler
from repro.gpu import GPUConfig, HitRateCurve, Kernel, PerformanceModel
from repro.gpu.llc import SetAssociativeCache
from repro.metrics import AppRun, antt, stp
from repro.pagemove import MigrationCostModel, MigrationMode, PageMoveAddressMapping
from tests.strategies import SLOW_SETTINGS
from repro.vm import TLB, PageTable

CONFIG = GPUConfig()
MAPPING = PageMoveAddressMapping()
PROFILER = EpochProfiler(CONFIG)


# ---------------------------------------------------------------------------
# Address mapping (Figure 8)
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=MAPPING.total_bytes // 4096 - 1))
def test_every_page_confined_to_one_channel(rpn):
    channels = {loc.channel for loc in MAPPING.page_columns(rpn)}
    assert channels == {MAPPING.channel_of_page(rpn)}


@given(st.integers(min_value=0, max_value=MAPPING.total_bytes // 4096 - 1))
def test_page_striped_over_all_stacks_and_groups(rpn):
    columns = MAPPING.page_columns(rpn)
    assert {c.stack for c in columns} == set(range(4))
    assert {c.bank_group for c in columns} == set(range(4))
    assert len(columns) == 32


@given(st.integers(min_value=0, max_value=MAPPING.total_bytes - 1))
def test_decode_fields_within_geometry(address):
    loc = MAPPING.decode(address)
    cfg = MAPPING.config
    assert 0 <= loc.stack < cfg.num_stacks
    assert 0 <= loc.channel < cfg.channels_per_stack
    assert 0 <= loc.bank_group < cfg.bank_groups_per_channel
    assert 0 <= loc.bank < cfg.banks_per_group
    assert 0 <= loc.row < cfg.rows_per_bank
    assert 0 <= loc.column < cfg.columns_per_row


@given(st.integers(min_value=0, max_value=MAPPING.total_bytes // 4096 - 1),
       st.integers(min_value=0, max_value=7))
def test_retarget_changes_only_channel(rpn, channel):
    moved = MAPPING.retarget_page(rpn, channel)
    a, b = MAPPING.page_coordinates(rpn), MAPPING.page_coordinates(moved)
    assert b.channel == channel
    assert (a.bank, a.row, a.column_base) == (b.bank, b.row, b.column_base)
    # Retargeting back is the identity.
    assert MAPPING.retarget_page(moved, a.channel) == rpn


# ---------------------------------------------------------------------------
# Page table
# ---------------------------------------------------------------------------
@given(st.dictionaries(st.integers(min_value=0, max_value=(1 << 36) - 1),
                       st.tuples(st.integers(min_value=0, max_value=1 << 20),
                                 st.integers(min_value=0, max_value=7)),
                       max_size=50))
def test_page_table_map_lookup_roundtrip(mappings):
    table = PageTable(0)
    for vpn, (rpn, channel) in mappings.items():
        table.map(vpn, rpn, channel)
    assert len(table) == len(mappings)
    for vpn, (rpn, channel) in mappings.items():
        entry = table.lookup(vpn)
        assert entry.rpn == rpn and entry.channel == channel
    # Channel counts sum to the mapping count.
    assert sum(table.channel_page_counts().values()) == len(mappings)
    # Iteration yields every vpn exactly once, sorted.
    vpns = [vpn for vpn, _ in table.entries()]
    assert vpns == sorted(mappings)


@given(st.sets(st.integers(min_value=0, max_value=(1 << 36) - 1), max_size=30))
def test_page_table_unmap_restores_emptiness(vpns):
    table = PageTable(0)
    for vpn in vpns:
        table.map(vpn, vpn & 0xFFFF, channel=vpn % 8)
    for vpn in vpns:
        table.unmap(vpn)
    assert len(table) == 0
    assert all(table.lookup(vpn) is None for vpn in vpns)


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=500)),
                max_size=120))
def test_tlb_occupancy_never_exceeds_capacity(accesses):
    tlb = TLB(entries=16, sets=4, name="prop")
    for app_id, vpn in accesses:
        if tlb.lookup(app_id, vpn) is None:
            tlb.fill(app_id, vpn, rpn=vpn, channel=vpn % 8)
    assert tlb.occupancy() <= 16
    assert tlb.stats.accesses == len(accesses)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
def test_tlb_fill_then_lookup_hits(vpns):
    tlb = TLB.l1()  # 64 entries, fully associative: 31 keys always fit
    for vpn in vpns:
        tlb.fill(0, vpn, rpn=vpn + 1, channel=0)
    for vpn in set(vpns):
        entry = tlb.lookup(0, vpn)
        assert entry is not None and entry.rpn == vpn + 1


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200))
def test_cache_stats_always_consistent(addresses):
    cache = SetAssociativeCache(size_bytes=16 * 1024, ways=4, line_bytes=128)
    cache.run_trace(addresses)
    assert cache.stats.accesses == len(addresses)
    assert cache.occupancy() <= 16 * 1024 // 128
    assert 0.0 <= cache.stats.hit_rate <= 1.0
    # An immediate re-walk of a short unique-line suffix can't miss more
    # than the capacity allows; weaker invariant: repeating the full trace
    # can only raise the hit count.
    before = cache.stats.hits
    cache.run_trace(addresses)
    assert cache.stats.hits >= before


@given(
    st.floats(min_value=1e3, max_value=1e8),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1e3, max_value=1e9),
)
def test_hit_rate_curve_monotone_and_bounded(ref_cap, ref_hit, working_set):
    curve = HitRateCurve(ref_cap, ref_hit, working_set)
    capacities = [working_set * f for f in (0.01, 0.1, 0.5, 1.0, 2.0)]
    rates = [curve.hit_rate(c) for c in capacities]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert rates == sorted(rates)


# ---------------------------------------------------------------------------
# Performance model
# ---------------------------------------------------------------------------
KERNELS = st.builds(
    Kernel,
    name=st.just("prop"),
    ipc_per_sm=st.floats(min_value=1.0, max_value=64.0),
    apki_llc=st.floats(min_value=0.0, max_value=20.0),
    llc_hit_rate=st.floats(min_value=0.0, max_value=0.999),
    footprint_bytes=st.integers(min_value=0, max_value=1 << 32),
)


@given(KERNELS,
       st.integers(min_value=4, max_value=76),
       st.integers(min_value=4, max_value=28))
def test_throughput_monotone_in_resources(kernel, sms, channels):
    model = PerformanceModel(CONFIG)
    base = model.throughput(kernel, sms, channels).ipc
    assert model.throughput(kernel, sms + 4, channels).ipc >= base - 1e-9
    assert model.throughput(kernel, sms, channels + 4).ipc >= base - 1e-9


@given(KERNELS,
       st.integers(min_value=4, max_value=80),
       st.integers(min_value=4, max_value=32))
def test_throughput_never_exceeds_rooflines(kernel, sms, channels):
    t = PerformanceModel(CONFIG).throughput(kernel, sms, channels)
    assert t.ipc <= t.compute_roof + 1e-9
    assert t.ipc <= t.bandwidth_roof + 1e-9
    assert t.ipc <= t.mlp_roof + 1e-9
    assert t.dram_bytes_per_cycle >= 0


@given(KERNELS)
def test_normalized_progress_bounded_by_one(kernel):
    model = PerformanceModel(CONFIG)
    for sms, channels in ((8, 8), (40, 16), (80, 32)):
        np_value = model.normalized_progress(kernel, sms, channels)
        assert 0.0 <= np_value <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------
def make_profile(app_id, ipc_max, apki, hit):
    return AppProfile(
        app_id=app_id,
        ipc_max_per_sm=ipc_max,
        apki_llc=apki,
        llc_hit_rate=hit,
        bw_demand_per_sm=PROFILER.bw_demand_per_sm(ipc_max, apki),
        bw_supply_per_mc=PROFILER.bw_supply_per_mc(hit),
    )


PROFILES = st.tuples(
    st.floats(min_value=8.0, max_value=64.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=0.999),
)


@SLOW_SETTINGS
@given(st.lists(PROFILES, min_size=2, max_size=4))
def test_partitioner_conserves_budget_and_minimums(raw_profiles):
    app_ids = list(range(len(raw_profiles)))
    state = PartitionState.even(app_ids)
    partitioner = DemandAwarePartitioner(state, gpu_config=CONFIG)
    profiles = {
        i: make_profile(i, *params) for i, params in enumerate(raw_profiles)
    }
    decision = partitioner.compute(profiles)
    total_sms = sum(a.sms for a in decision.allocations.values())
    total_mcs = sum(a.channels for a in decision.allocations.values())
    assert total_sms == state.used_sms
    assert total_mcs == state.used_channels
    for alloc in decision.allocations.values():
        assert alloc.sms >= state.min_sms
        assert alloc.channels >= state.min_channels
        assert alloc.channels % state.channel_group == 0
    assert decision.iterations <= partitioner.max_iterations


# ---------------------------------------------------------------------------
# Migration cost model
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=1_000_000),
       st.sampled_from(list(MigrationMode)))
def test_migration_charge_monotone_and_consistent(n_pages, mode):
    model = MigrationCostModel(mapping=MAPPING)
    charge = model.charge(n_pages, mode)
    bigger = model.charge(n_pages + 1, mode)
    assert bigger.window_cycles >= charge.window_cycles
    assert charge.bytes_moved == n_pages * 4096
    assert charge.commands == n_pages * model.commands_per_page(mode)
    assert 0.0 <= charge.channel_bw_penalty <= 1.0
    assert 0.0 <= charge.global_penalty < 1.0


@given(st.integers(min_value=1, max_value=100_000))
def test_ppmm_always_cheapest(n_pages):
    model = MigrationCostModel(mapping=MAPPING)
    ppmm = model.charge(n_pages, MigrationMode.PPMM).window_cycles
    soft = model.charge(n_pages, MigrationMode.SOFTWARE).window_cycles
    trad = model.charge(n_pages, MigrationMode.TRADITIONAL).window_cycles
    assert ppmm < soft < trad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
RUNS = st.lists(
    st.builds(
        AppRun,
        app_id=st.integers(min_value=0, max_value=7),
        name=st.just("app"),
        ipc=st.floats(min_value=0.1, max_value=1000.0),
        ipc_alone=st.floats(min_value=0.1, max_value=1000.0),
    ),
    min_size=1,
    max_size=8,
)


@given(RUNS)
def test_stp_and_antt_relations(runs):
    s = stp(runs)
    a = antt(runs)
    n = len(runs)
    assert s > 0
    assert a > 0
    # Cauchy-Schwarz style bound: STP/n and 1/ANTT are both means of
    # reciprocal quantities, so STP * ANTT >= n.
    assert s * a >= n - 1e-9


@given(RUNS)
def test_stp_bounded_when_no_speedup(runs):
    # If no app exceeds its solo IPC, STP <= n and ANTT >= 1.
    capped = [
        AppRun(r.app_id, r.name, min(r.ipc, r.ipc_alone), r.ipc_alone)
        for r in runs
    ]
    assert stp(capped) <= len(capped) + 1e-9
    assert antt(capped) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Mapping <-> driver adapter consistency
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=7),
       st.integers(min_value=1, max_value=40))
def test_frames_of_channel_agree_with_channel_of_frame(channel, count):
    from repro.pagemove import InterleavedPageMapping

    adapter = InterleavedPageMapping(MAPPING)
    frames = adapter.frames_of_channel(channel)
    for _ in range(count):
        rpn = next(frames)
        assert adapter.channel_of_frame(rpn) == channel
        assert MAPPING.channel_of_page(rpn) == channel


@given(st.integers(min_value=1, max_value=64))
def test_driver_free_lists_match_mapping(pages_per_channel):
    from repro.pagemove import InterleavedPageMapping
    from repro.vm import GPUDriver

    driver = GPUDriver(pages_per_channel=pages_per_channel,
                       mapping=InterleavedPageMapping(MAPPING))
    driver.register_app(0, channels=range(8))
    seen = set()
    for channel in range(8):
        assert driver.free_pages(channel) == pages_per_channel
        for _ in range(pages_per_channel):
            rpn = driver.allocate_page(0, channel=channel)
            assert driver.channel_of_frame(rpn) == channel
            assert rpn not in seen
            seen.add(rpn)
