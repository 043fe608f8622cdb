"""Unit tests for LLC, NoC and counters (repro.gpu.llc/noc/counters)."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.gpu import CrossbarNoC, GPUConfig, HitRateCurve, SetAssociativeCache
from repro.gpu.counters import CounterBank, HardwareCounter
from repro.workloads import TABLE2, build_application


class TestSetAssociativeCache:
    def test_slice_geometry(self):
        cache = SetAssociativeCache(size_bytes=96 * 1024, ways=16, line_bytes=128)
        assert cache.num_sets == 48  # one Table 1 LLC slice

    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache()
        assert cache.access(0) is False
        assert cache.access(64) is True  # same 128 B line
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = SetAssociativeCache(size_bytes=2 * 128, ways=2, line_bytes=128)
        # Single set, two ways; three distinct lines mapping to set 0.
        stride = cache.num_sets * 128
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts line 0
        assert cache.access(0) is False
        assert cache.stats.evictions >= 1

    def test_working_set_within_capacity_hits(self):
        cache = SetAssociativeCache(size_bytes=96 * 1024, ways=16, line_bytes=128)
        lines = [i * 128 for i in range(256)]  # 32 KB < 96 KB
        cache.run_trace(lines)
        cache.stats = type(cache.stats)()  # reset
        cache.run_trace(lines)
        assert cache.stats.hit_rate == 1.0

    def test_streaming_never_hits(self):
        cache = SetAssociativeCache(size_bytes=96 * 1024, ways=16, line_bytes=128)
        stats = cache.run_trace(i * 128 for i in range(10_000))
        assert stats.hit_rate == 0.0

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(size_bytes=1000, ways=3, line_bytes=128)
        with pytest.raises(ConfigError):
            SetAssociativeCache(size_bytes=0)

    def test_negative_address_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache().access(-1)


class TestHitRateCurve:
    def test_anchor_is_respected(self):
        curve = HitRateCurve(
            reference_capacity=3e6, reference_hit_rate=0.4, working_set=50e6
        )
        assert curve.hit_rate(3e6) == pytest.approx(0.4)

    def test_monotone_in_capacity(self):
        curve = HitRateCurve(3e6, 0.4, working_set=50e6)
        rates = [curve.hit_rate(c) for c in (1e6, 2e6, 4e6, 10e6, 60e6)]
        assert rates == sorted(rates)

    def test_flat_above_working_set(self):
        curve = HitRateCurve(3e6, 0.4, working_set=5e6, peak_hit_rate=0.5)
        assert curve.hit_rate(5e6) == curve.hit_rate(100e6) == 0.5

    def test_zero_capacity(self):
        curve = HitRateCurve(3e6, 0.4, working_set=50e6)
        assert curve.hit_rate(0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            HitRateCurve(0, 0.4, 1e6)
        with pytest.raises(ConfigError):
            HitRateCurve(1e6, 1.4, 1e6)
        with pytest.raises(ConfigError):
            HitRateCurve(1e6, 0.6, 1e6, peak_hit_rate=0.5)

    def test_equality_is_by_value(self):
        curve = HitRateCurve(3e6, 0.4, working_set=50e6, alpha=0.15)
        same = HitRateCurve(3e6, 0.4, working_set=50e6, alpha=0.15)
        assert curve == same and hash(curve) == hash(same)
        assert curve != HitRateCurve(3e6, 0.4, working_set=50e6, alpha=0.2)
        assert curve != HitRateCurve(3e6, 0.4, working_set=40e6, alpha=0.15)

    def test_catalog_kernels_survive_pickling(self):
        """Every kernel a Table 2 benchmark builds equals, and hashes as,
        its pickled copy (the copy a pool worker sees)."""
        kernels = [kernel for spec in TABLE2
                   for kernel in build_application(spec.abbr).kernels]
        assert kernels and all(k.hit_curve is not None for k in kernels)
        for kernel in kernels:
            copy = pickle.loads(pickle.dumps(kernel))
            assert copy == kernel, kernel.name
            assert hash(copy) == hash(kernel), kernel.name


class TestCrossbarNoC:
    def test_allocation_scales_with_resources(self):
        noc = CrossbarNoC(GPUConfig())
        alloc = noc.allocation_for(num_sms=40, num_channels=16)
        assert alloc.sm_ports == 40
        assert alloc.mem_ports == 32  # two LLC slices per channel

    def test_reply_bandwidth(self):
        noc = CrossbarNoC(GPUConfig())
        alloc = noc.allocation_for(20, 8)
        # min(20 SM ports, 16 mem ports) * 32 B
        assert noc.reply_bandwidth_bytes_per_cycle(alloc) == 16 * 32

    def test_noc_never_bounds_dram_demand(self):
        """Table 1 NoC dwarfs DRAM bandwidth (paper treats it as ample)."""
        cfg = GPUConfig()
        noc = CrossbarNoC(cfg)
        alloc = noc.allocation_for(20, 8)
        dram_peak = 8 * cfg.channel_bandwidth_bytes_per_cycle()
        assert not noc.is_noc_bound(alloc, dram_peak)

    def test_bounds_checked(self):
        noc = CrossbarNoC(GPUConfig())
        with pytest.raises(ConfigError):
            noc.allocation_for(81, 8)
        with pytest.raises(ConfigError):
            noc.allocation_for(8, 33)


class TestHardwareCounter:
    def test_saturating_counter_pins_at_max(self):
        counter = HardwareCounter(width_bits=4, saturating=True)
        counter.increment(100)
        assert counter.value == 15

    def test_wrapping_counter_wraps(self):
        counter = HardwareCounter(width_bits=4, saturating=False)
        counter.increment(17)
        assert counter.value == 1

    def test_read_and_reset(self):
        counter = HardwareCounter()
        counter.increment(5)
        assert counter.read_and_reset() == 5
        assert counter.value == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigError):
            HardwareCounter().increment(-1)


class TestCounterBank:
    def test_snapshot_scales_back_up(self):
        bank = CounterBank(scale=10)
        bank.count_instructions(5000)
        for _ in range(100):
            bank.count_llc_access(1, hit=True)
        snap = bank.snapshot()
        assert snap.instructions == 5000
        assert snap.llc_accesses == 100
        assert snap.llc_hits == 100
        assert snap.llc_hit_rate == 1.0
        assert snap.apki_llc == pytest.approx(20.0)

    def test_residue_carries_between_snapshots(self):
        bank = CounterBank(scale=10)
        bank.count_llc_access(5)
        assert bank.snapshot().llc_accesses == 0  # below one tick
        bank.count_llc_access(5)
        assert bank.snapshot().llc_accesses == 10

    def test_empty_snapshot(self):
        snap = CounterBank().snapshot()
        assert snap.llc_hit_rate == 0.0
        assert snap.apki_llc == 0.0

    def test_dram_bytes(self):
        bank = CounterBank(scale=1)
        bank.count_dram_bytes(4096)
        assert bank.snapshot().dram_bytes == 4096


class TestNoCQueueing:
    def test_latency_grows_with_load(self):
        noc = CrossbarNoC(GPUConfig())
        alloc = noc.allocation_for(40, 16)
        capacity = noc.reply_bandwidth_bytes_per_cycle(alloc)
        latencies = [
            noc.queueing_latency_cycles(alloc, capacity * load)
            for load in (0.1, 0.5, 0.9)
        ]
        assert latencies == sorted(latencies)

    def test_zero_load_is_hop_latency(self):
        noc = CrossbarNoC(GPUConfig())
        alloc = noc.allocation_for(40, 16)
        assert noc.queueing_latency_cycles(alloc, 0.0, hop_cycles=4.0) == 4.0

    def test_saturation_is_infinite(self):
        noc = CrossbarNoC(GPUConfig())
        alloc = noc.allocation_for(40, 16)
        capacity = noc.reply_bandwidth_bytes_per_cycle(alloc)
        assert noc.queueing_latency_cycles(alloc, capacity) == float("inf")

    def test_dram_bound_slices_see_negligible_noc_queueing(self):
        """The paper's implicit claim: at DRAM-saturating demand the NoC
        utilization is so low its queueing adds ~nothing."""
        cfg = GPUConfig()
        noc = CrossbarNoC(cfg)
        for sms, mcs in ((20, 8), (40, 16), (60, 24)):
            alloc = noc.allocation_for(sms, mcs)
            dram_peak = mcs * cfg.channel_bandwidth_bytes_per_cycle()
            latency = noc.queueing_latency_cycles(alloc, dram_peak)
            # ~31% utilization -> ~0.23 cycles of queueing over the hop.
            assert noc.utilization(alloc, dram_peak) < 0.35
            assert latency < 4.5

    def test_utilization_metric(self):
        noc = CrossbarNoC(GPUConfig())
        alloc = noc.allocation_for(40, 16)
        capacity = noc.reply_bandwidth_bytes_per_cycle(alloc)
        assert noc.utilization(alloc, capacity / 2) == pytest.approx(0.5)


class TestSlicedLLC:
    def test_default_geometry_is_table1(self):
        from repro.gpu.llc import SlicedLLC
        llc = SlicedLLC()
        assert llc.num_slices == 64
        assert llc.capacity_bytes == 6 * 1024 * 1024

    def test_allocation_shrinks_capacity(self):
        from repro.gpu.llc import SlicedLLC
        llc = SlicedLLC()
        llc.allocate(range(32))  # 16 channels' worth
        assert llc.capacity_bytes == 3 * 1024 * 1024

    def test_hit_rate_drops_with_fewer_slices(self):
        """Capacity travels with channels: a working set that fits the
        full LLC thrashes a quarter of it."""
        from repro.gpu.llc import SlicedLLC
        trace = [i * 128 for i in range(24_000)] * 2   # ~3 MB, touched twice

        full = SlicedLLC()
        full.run_trace(trace)
        quarter = SlicedLLC()
        quarter.allocate(range(16))
        quarter.run_trace(trace)
        assert full.stats().hit_rate > quarter.stats().hit_rate

    def test_accesses_confined_to_allocated_slices(self):
        from repro.gpu.llc import SlicedLLC
        llc = SlicedLLC(num_slices=8)
        llc.allocate([2, 5])
        for address in range(0, 64 * 128, 128):
            llc.access(address)
        for index, cache in enumerate(llc.slices):
            if index in (2, 5):
                assert cache.stats.accesses > 0
            else:
                assert cache.stats.accesses == 0

    def test_flush_slice_invalidates(self):
        from repro.gpu.llc import SlicedLLC
        llc = SlicedLLC(num_slices=2)
        llc.access(0)
        assert llc.access(0)            # hit
        llc.flush_slice(0)
        assert not llc.access(0)        # cold again

    def test_validation(self):
        from repro.gpu.llc import SlicedLLC
        with pytest.raises(ConfigError):
            SlicedLLC(num_slices=0)
        llc = SlicedLLC(num_slices=4)
        with pytest.raises(ConfigError):
            llc.allocate([])
        with pytest.raises(ConfigError):
            llc.allocate([9])
        with pytest.raises(ConfigError):
            llc.flush_slice(7)
