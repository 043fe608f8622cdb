"""Unit tests for the epoch profiler and Equations 1-2
(repro.core.profiler)."""

import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import AppProfile, EpochProfiler
from repro.errors import ConfigError
from repro.gpu import (
    Application, GPUConfig, Kernel, PerformanceModel, SliceThroughput,
)
from tests.strategies import STANDARD_SETTINGS
from tests.strategies.gpu import CONFIGS, configs, counted_epoch, finite, hexed


@pytest.fixture
def config():
    return GPUConfig()


@pytest.fixture
def profiler(config):
    return EpochProfiler(config)


def kernel(apki=6.4, hit=0.25, ipc=64.0):
    return Kernel("k", ipc_per_sm=ipc, apki_llc=apki, llc_hit_rate=hit,
                  footprint_bytes=1 << 30)


class TestEquations:
    def test_equation1_demand_per_sm(self, profiler):
        # BW_SM = IPC_max * APKI/1000 * line: 64 * 6.4/1000 * 128.
        demand = profiler.bw_demand_per_sm(ipc_max_per_sm=64.0, apki_llc=6.4)
        assert demand == pytest.approx(64 * 6.4 / 1000 * 128)

    def test_equation2_supply_hit_and_miss_parts(self, profiler, config):
        llc_ch = (config.llc_slices_per_channel
                  * config.llc_slice_bandwidth_bytes_per_cycle())
        mem_ch = config.channel_bandwidth_bytes_per_cycle()
        # Low hit rate: miss stream capped by DRAM bandwidth.
        supply = profiler.bw_supply_per_mc(llc_hit_rate=0.25)
        assert supply == pytest.approx(0.25 * llc_ch + mem_ch)
        # High hit rate: miss stream below DRAM bandwidth.
        supply = profiler.bw_supply_per_mc(llc_hit_rate=0.9)
        assert supply == pytest.approx(0.9 * llc_ch + 0.1 * llc_ch)

    def test_supply_monotone_in_hit_rate(self, profiler):
        supplies = [profiler.bw_supply_per_mc(h) for h in (0.0, 0.3, 0.7, 1.0)]
        assert supplies == sorted(supplies)


class TestProfileLifecycle:
    def test_track_required(self, profiler, config):
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        with pytest.raises(ConfigError, match="app 0 is not tracked"):
            profiler.observe(0, t, 5_000_000)
        with pytest.raises(ConfigError, match="app 0 is not tracked"):
            profiler.profile(0)

    def test_invalid_ipc_max(self, profiler):
        with pytest.raises(ConfigError):
            profiler.track(0, ipc_max_per_sm=0)

    def test_track_application(self, profiler):
        """An app's stall-free issue rate is its fastest kernel's, and an
        app already tracked keeps its counters."""
        app = Application(0, "two", [kernel(ipc=12.0), kernel(ipc=48.0)])
        profiler.track_application(0, app)
        profiler.observe(0, counted_epoch(), 4096)
        profiler.track_application(0, app)
        profile = profiler.profile(0)
        assert profile.ipc_max_per_sm == 48.0
        assert profile.footprint_bytes == 1 << 30
        assert profile.apki_llc == 1000.0

    def test_observe_and_profile_roundtrip(self, profiler, config):
        """Counters fed from a throughput record recover APKI and hit rate."""
        profiler.track(0, ipc_max_per_sm=64.0, footprint_bytes=123)
        model = PerformanceModel(config)
        k = kernel()
        t = model.throughput(k, 40, 16)
        profiler.observe(0, t, 5_000_000)
        profile = profiler.profile(0)
        assert profile.apki_llc == pytest.approx(k.apki_llc, rel=0.02)
        assert profile.llc_hit_rate == pytest.approx(t.llc_hit_rate, abs=0.02)
        assert profile.footprint_bytes == 123

    def test_profile_resets_counters(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        profiler.observe(0, t, 1_000_000)
        profiler.profile(0)
        empty = profiler.profile(0)
        assert empty.apki_llc == 0.0

    def test_negative_cycles_rejected(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        with pytest.raises(ConfigError):
            profiler.observe(0, t, -1)

    def test_dram_bytes_key_the_memo(self, profiler):
        """The DRAM-byte counter reaches no profile field, but two reads
        that differ only in it are two memo entries."""
        profiler.track(0, ipc_max_per_sm=64.0)
        profiler.observe(0, counted_epoch(), 4096)
        quiet = profiler.profile(0)
        profiler.observe(0, counted_epoch(dram_per_cycle=1.0), 4096)
        busy = profiler.profile(0)
        assert busy == quiet and busy is not quiet
        profiler.observe(0, counted_epoch(), 4096)
        assert profiler.profile(0) is quiet


class TestAppProfile:
    def test_demand_supply_ratio(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        profiler.observe(0, t, 5_000_000)
        profile = profiler.profile(0)
        # A PVC-like kernel at the even partition is memory-bound.
        assert profile.demand_supply_ratio(40, 16) > 1.0
        # With many channels and few SMs it flips.
        assert profile.demand_supply_ratio(8, 32) < 1.0

    def test_zero_supply_ratio(self, profiler):
        profiler.track(0, ipc_max_per_sm=64.0)
        profile = profiler.profile(0)
        assert profile.demand_supply_ratio(40, 16) == 0.0


#: The Equation 1-2 fields of an AppProfile.
PROFILE_FIELDS = ("app_id", "ipc_max_per_sm", "apki_llc", "llc_hit_rate",
                  "bw_demand_per_sm", "bw_supply_per_mc", "footprint_bytes")


def reference_profile(cfg, app_id, ipc_max, footprint, instructions,
                      accesses, hits) -> dict:
    """Equations 1-2 written out from the config's fields, in the order
    and association the profiler has always used (``bw_demand_per_sm``,
    ``bw_supply_per_mc``) on the snapshot's APKI and hit rate."""
    channels = cfg.hbm.num_stacks * cfg.hbm.channels_per_stack
    apki = accesses * 1000.0 / instructions if instructions else 0.0
    hit = hits / accesses if accesses else 0.0
    llc_bw = (cfg.llc_slices // channels) * (cfg.llc_line_bytes / 4)
    mem_bw = ((cfg.hbm.total_bandwidth_gbps / channels) * 1e9
              / (cfg.sm_freq_ghz * 1e9))
    miss = 1.0 - hit
    return hexed(AppProfile(
        app_id=app_id,
        ipc_max_per_sm=ipc_max,
        apki_llc=apki,
        llc_hit_rate=hit,
        bw_demand_per_sm=ipc_max * (apki / 1000.0) * cfg.llc_line_bytes,
        bw_supply_per_mc=hit * llc_bw + min(miss * llc_bw, mem_bw),
        footprint_bytes=footprint,
    ), PROFILE_FIELDS)


#: The reference counters, written out: the widths of the instruction,
#: LLC-access, LLC-hit and DRAM-byte counters (all saturating) and the
#: events per tick of the three narrow ones.
COUNTER_WIDTHS = (48, 16, 16, 16)
EVENTS_PER_TICK = 1024


def reference_reads(cfg, epochs):
    """What each boundary read returns for one app, as ``(instructions,
    accesses, hits)``: one epoch's event counts from its throughput
    record, four saturating counters, narrow-counter remainders carried
    across epochs and a read that resets the counts.  ``None`` is an
    epoch with nothing observed."""
    caps = [(1 << width) - 1 for width in COUNTER_WIDTHS]
    remainders = [0, 0, 0]
    reads = []
    for epoch in epochs:
        counts = [0, 0, 0, 0]
        if epoch is not None:
            t, cycles = epoch
            instructions = int(t.ipc * cycles)
            apki = (t.demand_bytes_per_cycle / max(1e-12, t.compute_roof)
                    / cfg.llc_line_bytes * 1000.0)
            accesses = int(instructions * apki / 1000.0)
            hits = int(accesses * t.llc_hit_rate)
            dram = int(t.dram_bytes_per_cycle * cycles)
            counts[0] = min(instructions, caps[0])
            for i, events in enumerate((accesses, hits, dram)):
                ticks, remainders[i] = divmod(remainders[i] + events,
                                              EVENTS_PER_TICK)
                counts[i + 1] = min(ticks, caps[i + 1])
        reads.append((counts[0], counts[1] * EVENTS_PER_TICK,
                      counts[2] * EVENTS_PER_TICK))
    return reads


#: Throughput records as the profiler reads them.  The ranges reach past
#: every counter's width within one epoch.
throughputs = st.builds(
    SliceThroughput,
    ipc=st.floats(min_value=0.0, max_value=1e7, **finite),
    compute_roof=st.floats(min_value=0.0, max_value=1e4, **finite),
    bandwidth_roof=st.just(0.0),
    mlp_roof=st.just(0.0),
    demand_bytes_per_cycle=st.floats(min_value=0.0, max_value=1e6, **finite),
    supply_bytes_per_cycle=st.just(0.0),
    dram_bytes_per_cycle=st.floats(min_value=0.0, max_value=1e6, **finite),
    llc_hit_rate=st.floats(min_value=0.0, max_value=1.0, **finite),
)
cycle_counts = st.one_of(st.just(0), st.just(5_000_000),
                         st.integers(min_value=0, max_value=10**8))
#: One app: its issue rate, footprint and up to 8 epochs, each an index
#: into a shared pool of throughput records plus cycles, or ``None``.
app_plans = st.tuples(
    st.floats(min_value=0.05, max_value=64.0, **finite),
    st.integers(min_value=0, max_value=1 << 33),
    st.lists(st.one_of(st.none(),
                       st.tuples(st.integers(0, 2), cycle_counts)),
             max_size=8),
)
#: Saturates all four counters in one 10**8-cycle epoch.
SATURATING = SliceThroughput(1e7, 1.0, 0.0, 0.0, 1e6, 0.0, 1e6, 1.0)


class TestProfileBits:
    """Every profile field is bitwise the written-out reference, on
    Table 1 and on two machines that differ from it in every constant
    Equations 1-2 read (one fresh profiler per example)."""

    @STANDARD_SETTINGS
    @given(cfg=configs, pool=st.lists(throughputs, min_size=1, max_size=3),
           plans=st.lists(app_plans, min_size=1, max_size=3))
    @example(cfg=CONFIGS[0], pool=[SATURATING],
             plans=[(64.0, 0, [(0, 10**8), (0, 10**8), None, (0, 0)])])
    def test_counter_profile_matches_the_reference(self, cfg, pool, plans):
        """Epoch sequences per app, observed and read the way the
        policies do: every resident observed, then every resident read.
        Records repeat (the observe memo), cycles may be 0 and counters
        saturate."""
        profiler = EpochProfiler(cfg)
        epochs = []
        want = []
        for app_id, (ipc_max, footprint, plan) in enumerate(plans):
            profiler.track(app_id, ipc_max_per_sm=ipc_max,
                           footprint_bytes=footprint)
            app_epochs = [None if e is None else (pool[e[0] % len(pool)], e[1])
                          for e in plan]
            epochs.append(app_epochs)
            want.append([
                reference_profile(cfg, app_id, ipc_max, footprint, *read)
                for read in reference_reads(cfg, app_epochs)
            ])
        for index in range(max(len(e) for e in epochs)):
            live = [a for a, e in enumerate(epochs) if index < len(e)]
            for app_id in live:
                epoch = epochs[app_id][index]
                if epoch is not None:
                    profiler.observe(app_id, *epoch)
            for app_id in live:
                got = profiler.profile(app_id)
                assert hexed(got, PROFILE_FIELDS) == want[app_id][index]

    @STANDARD_SETTINGS
    @given(cfg=configs,
           ipc_max=st.floats(min_value=0.05, max_value=64.0, **finite),
           instructions=st.integers(min_value=0, max_value=10**9),
           access_ticks=st.integers(min_value=0, max_value=65535),
           data=st.data())
    def test_static_profile_matches_the_reference(
            self, cfg, ipc_max, instructions, access_ticks, data):
        """A profile built from known parameters (UGPU's static
        profiles) is the counter read's profile for the same values."""
        hit_ticks = data.draw(st.integers(min_value=0, max_value=access_ticks))
        accesses = access_ticks * EVENTS_PER_TICK
        hits = hit_ticks * EVENTS_PER_TICK
        profile = EpochProfiler(cfg).build_profile(
            3, ipc_max,
            accesses * 1000.0 / instructions if instructions else 0.0,
            hits / accesses if accesses else 0.0,
            77,
        )
        assert hexed(profile, PROFILE_FIELDS) == reference_profile(
            cfg, 3, ipc_max, 77, instructions, accesses, hits)

    def test_configs_move_both_equations(self):
        profiles = []
        for cfg in CONFIGS:
            profiler = EpochProfiler(cfg)
            profiles.append((profiler.bw_demand_per_sm(64.0, 6.4),
                             profiler.bw_supply_per_mc(0.25)))
        assert len({demand for demand, _ in profiles}) > 1
        assert len({supply for _, supply in profiles}) == len(CONFIGS)


class TestAppProfileRecord:
    def record(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0, footprint_bytes=5)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        profiler.observe(0, t, 5_000_000)
        return profiler.profile(0)

    def test_immutable(self, profiler, config):
        with pytest.raises(AttributeError):
            self.record(profiler, config).apki_llc = 1.0

    def test_equal_and_hashed_by_value(self, profiler, config):
        record = self.record(profiler, config)
        twin = self.record(EpochProfiler(config), config)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
        assert AppProfile(0, 64.0, 6.4, 0.25, 1.0, 2.0) == AppProfile(
            app_id=0, ipc_max_per_sm=64.0, apki_llc=6.4, llc_hit_rate=0.25,
            bw_demand_per_sm=1.0, bw_supply_per_mc=2.0, footprint_bytes=0)

    def test_pickle_round_trip(self, profiler, config):
        record = self.record(profiler, config)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is AppProfile
        assert copy == record
        assert hexed(copy, PROFILE_FIELDS) == hexed(record, PROFILE_FIELDS)

    def test_methods(self, profiler, config):
        record = self.record(profiler, config)
        assert record.footprint_bytes == 5
        assert record.demand(10) == record.bw_demand_per_sm * 10
        assert record.supply(4) == record.bw_supply_per_mc * 4
        assert record.demand_supply_ratio(10, 4) == (
            record.demand(10) / record.supply(4))
