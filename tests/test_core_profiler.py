"""Unit tests for the epoch profiler and Equations 1-2
(repro.core.profiler)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import AppProfile, EpochProfiler
from repro.errors import ConfigError
from repro.gpu import GPUConfig, Kernel, PerformanceModel
from repro.gpu.counters import CounterSnapshot
from tests.strategies import STANDARD_SETTINGS
from tests.strategies.gpu import CONFIGS, configs, hexed


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
    def test_track_required(self, profiler):
        with pytest.raises(ConfigError):
            profiler.profile(0)
        with pytest.raises(ConfigError):
            profiler.bank(0)

    def test_invalid_ipc_max(self, profiler):
        with pytest.raises(ConfigError):
            profiler.track(0, ipc_max_per_sm=0)

    def test_observe_and_profile_roundtrip(self, profiler, config):
        """Counters fed from a throughput record recover APKI and hit rate."""
        profiler.track(0, ipc_max_per_sm=64.0, footprint_bytes=123)
        model = PerformanceModel(config)
        k = kernel()
        t = model.throughput(k, 40, 16)
        profiler.observe_epoch(0, t, effective_cycles=5_000_000)
        profile = profiler.profile(0)
        assert profile.apki_llc == pytest.approx(k.apki_llc, rel=0.02)
        assert profile.llc_hit_rate == pytest.approx(t.llc_hit_rate, abs=0.02)
        assert profile.footprint_bytes == 123

    def test_profile_resets_counters(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        profiler.observe_epoch(0, t, effective_cycles=1_000_000)
        profiler.profile(0)
        empty = profiler.profile(0)
        assert empty.apki_llc == 0.0

    def test_negative_cycles_rejected(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        with pytest.raises(ConfigError):
            profiler.observe_epoch(0, t, effective_cycles=-1)


class TestAppProfile:
    def test_demand_supply_ratio(self, profiler, config):
        profiler.track(0, ipc_max_per_sm=64.0)
        t = PerformanceModel(config).throughput(kernel(), 40, 16)
        profiler.observe_epoch(0, t, effective_cycles=5_000_000)
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


class TestProfileBits:
    """Every profile field is bitwise the written-out reference, on
    Table 1 and on two machines that differ from it in every constant
    Equations 1-2 read (one fresh profiler per example)."""

    @STANDARD_SETTINGS
    @given(cfg=configs,
           ipc_max=st.floats(min_value=0.05, max_value=64.0,
                             allow_nan=False, allow_infinity=False),
           instructions=st.integers(min_value=0, max_value=10**9),
           access_ticks=st.integers(min_value=0, max_value=65535),
           data=st.data())
    def test_counter_profile_matches_the_reference(
            self, cfg, ipc_max, instructions, access_ticks, data):
        hit_ticks = data.draw(st.integers(min_value=0, max_value=access_ticks))
        profiler = EpochProfiler(cfg)
        profiler.track(3, ipc_max_per_sm=ipc_max, footprint_bytes=77)
        bank = profiler.bank(3)
        scale = bank.scale
        bank.count_instructions(instructions)
        bank.count_llc_access((access_ticks - hit_ticks) * scale, hit=False)
        bank.count_llc_access(hit_ticks * scale, hit=True)
        got = profiler.profile(3)
        want = reference_profile(cfg, 3, ipc_max, 77, instructions,
                                 access_ticks * scale, hit_ticks * scale)
        assert hexed(got, PROFILE_FIELDS) == want
        snapshot = CounterSnapshot(instructions, access_ticks * scale,
                                   hit_ticks * scale, 0)
        offline = profiler.profile_from_snapshot(3, snapshot)
        assert hexed(offline, PROFILE_FIELDS) == want

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
        profiler.observe_epoch(0, t, effective_cycles=5_000_000)
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
