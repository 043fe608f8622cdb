"""Unit tests for GPU configuration and SM models (repro.gpu.config/sm)."""

import dataclasses
import pickle

import pytest

from repro.cluster.shard import FleetShardJob
from repro.core.profiler import EpochProfiler
from repro.core.system import MultitaskSystem
from repro.errors import ConfigError
from repro.exec.keys import fingerprint
from repro.gpu import (
    GPUConfig,
    Kernel,
    OccupancyLimits,
    PerformanceModel,
    StreamingMultiprocessor,
    occupancy,
)
from repro.gpu.config import DEFAULT_GPU_CONFIG
from repro.hbm.config import HBMConfig, HBMTiming
from repro.telemetry.provenance import config_hash
from repro.workloads import build_mix


class TestGPUConfig:
    def test_table1_defaults_validate(self):
        GPUConfig().validate()

    def test_table1_headline_numbers(self):
        cfg = GPUConfig()
        assert cfg.num_sms == 80
        assert cfg.num_channels == 32
        assert cfg.llc_size == 6 * 1024 * 1024
        assert cfg.llc_slices == 64
        assert cfg.llc_slices_per_channel == 2
        assert cfg.hbm.total_bandwidth_gbps == 900.0

    def test_channel_bandwidth_per_gpu_cycle(self):
        cfg = GPUConfig()
        # 900/32 GB/s at 1.4 GHz ~ 20.1 bytes per GPU cycle per channel.
        assert cfg.channel_bandwidth_bytes_per_cycle() == pytest.approx(
            900 / 32 * 1e9 / 1.4e9
        )

    def test_page_fault_latency_cycles(self):
        cfg = GPUConfig()
        assert cfg.page_fault_latency_cycles() == pytest.approx(28_000)  # 20us @ 1.4GHz

    def test_inconsistent_warp_geometry_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(max_threads_per_sm=1000).validate()

    def test_inconsistent_llc_geometry_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(llc_sets_per_slice=50).validate()

    def test_zero_sms_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(num_sms=0).validate()

    @pytest.mark.parametrize("name", ["llc_latency_cycles",
                                      "dram_latency_cycles"])
    def test_nonpositive_latency_rejected(self, name):
        """The MLP draw law divides by the DRAM latency and scales by the
        latency ratio, so a model refuses either latency unless positive."""
        for value in (0, -1):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                PerformanceModel(GPUConfig(**{name: value}))


def _used(config):
    """``config`` after every per-object cache has been filled."""
    config.validate()
    hash(config)
    if isinstance(config, GPUConfig):
        config.roofline
    return config


class TestFrozenConfigs:
    """Each frozen config validates once and hashes once per object; the
    cached state never shows in ==, repr, fields, fingerprints or
    pickles, and a refusal is never cached."""

    @pytest.mark.parametrize("config", [
        GPUConfig(num_sms=0),
        GPUConfig(llc_latency_cycles=-1),
        GPUConfig(dram_latency_cycles=0),
        GPUConfig(hbm=HBMConfig(timing=HBMTiming(tRFC=5000))),
        HBMConfig(num_stacks=0),
        HBMTiming(tRAS=40),
    ], ids=["gpu", "gpu-llc-latency", "gpu-dram-latency",
            "gpu-nested-timing", "hbm", "timing"])
    def test_refusal_repeats_on_every_call(self, config):
        with pytest.raises(ConfigError) as first:
            config.validate()
        with pytest.raises(ConfigError) as second:
            config.validate()
        assert str(second.value) == str(first.value)

    def test_used_config_is_indistinguishable_from_a_fresh_one(self):
        used = _used(GPUConfig())
        fresh = GPUConfig()
        assert used == fresh and hash(used) == hash(GPUConfig())
        assert repr(used) == repr(fresh)
        assert ([f.name for f in dataclasses.fields(used)]
                == [f.name for f in dataclasses.fields(fresh)])
        assert fingerprint(used) == fingerprint(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == fresh and vars(copy) == vars(GPUConfig())
        assert vars(copy.hbm) == vars(HBMConfig())
        assert vars(copy.hbm.timing) == vars(HBMTiming())

    @pytest.mark.parametrize("record", [
        GPUConfig(), HBMConfig(), HBMTiming(),
        Kernel("k", ipc_per_sm=1.0, apki_llc=2.0, llc_hit_rate=0.3,
               footprint_bytes=100, instructions=1000),
    ], ids=["gpu", "hbm", "timing", "kernel"])
    def test_pickles_carry_fields_only(self, record):
        """Any non-field attribute, including a cache no module names,
        stays out of the pickle state."""
        fresh = pickle.dumps(record)
        object.__setattr__(record, "_some_later_cache", object())
        hash(record)
        assert pickle.dumps(record) == fresh
        copy = pickle.loads(fresh)
        assert sorted(vars(copy)) == sorted(
            f.name for f in dataclasses.fields(record))

    def test_cached_hash_is_the_field_hash(self):
        for config in (_used(GPUConfig()), _used(HBMConfig()),
                       _used(HBMTiming())):
            fields = tuple(getattr(config, f.name)
                           for f in dataclasses.fields(config))
            assert hash(config) == hash(fields)

    def test_config_hash_is_unchanged(self):
        """The fleet run_id hashes the config with the run's shape; a
        used config hashes as a fresh one, to the value it always had."""
        for config in (GPUConfig(), _used(DEFAULT_GPU_CONFIG)):
            assert config_hash(config) == "1956bc1ec8070829"
            assert config_hash(
                config, placement="first_fit", slicing="ugpu", nodes=200,
                tenants=2, round=1_000_000, horizon=50_000_000, arrivals=971,
            ) == "c548d638eecebebd"

    def test_components_share_the_default(self):
        assert PerformanceModel().config is DEFAULT_GPU_CONFIG
        assert EpochProfiler().config is DEFAULT_GPU_CONFIG
        system = MultitaskSystem(build_mix(["PVC", "DXTC"]).applications)
        assert system.config is DEFAULT_GPU_CONFIG
        assert system.perf.config is DEFAULT_GPU_CONFIG
        job = FleetShardJob(nodes=(), round_cycles=1, instructions_per_kernel=1)
        assert job.config is DEFAULT_GPU_CONFIG

    def test_replace_of_the_default_validates_on_use(self):
        bad = dataclasses.replace(DEFAULT_GPU_CONFIG, num_sms=0)
        assert bad is not DEFAULT_GPU_CONFIG
        for _ in range(2):
            with pytest.raises(ConfigError, match="num_sms must be positive"):
                PerformanceModel(bad)
        half = dataclasses.replace(DEFAULT_GPU_CONFIG, num_sms=40)
        assert half is not DEFAULT_GPU_CONFIG and half != DEFAULT_GPU_CONFIG
        assert PerformanceModel(half).config is half
        assert MultitaskSystem(build_mix(["PVC", "DXTC"]).applications,
                               config=half).config is half

    def test_roofline_constants_are_the_derived_quantities(self):
        cfg = GPUConfig(llc_latency_cycles=100)
        roof = cfg.roofline
        assert roof.line_bytes == cfg.llc_line_bytes
        assert roof.llc_bytes_per_channel == cfg.llc_bytes_per_channel
        assert roof.llc_bw_per_channel == (
            cfg.llc_slices_per_channel
            * cfg.llc_slice_bandwidth_bytes_per_cycle())
        assert (roof.dram_bw_per_channel
                == cfg.channel_bandwidth_bytes_per_cycle())
        assert roof.latency_ratio == 100 / cfg.dram_latency_cycles
        assert roof.draw_coefficient == cfg.mlp_draw_coefficient
        assert roof.draw_exponent == cfg.mlp_draw_exponent

    def test_timing_validate_reads_fields_only(self):
        """A cached attribute is not a timing parameter: a negative
        cached hash must not read as one."""
        timing = HBMTiming()
        object.__setattr__(timing, "_hash", -5)
        timing.validate()
        with pytest.raises(ConfigError,
                           match="timing parameter tCL must be positive, got 0"):
            HBMTiming(tCL=0).validate()


class TestOccupancy:
    def test_thread_limited(self):
        limits = occupancy(GPUConfig(), threads_per_block=256)
        assert limits.blocks_by_threads == 8
        assert limits.blocks == 8
        assert limits.limiter == "threads"

    def test_shared_memory_limited(self):
        limits = occupancy(
            GPUConfig(), threads_per_block=64, shared_mem_per_block=48 * 1024
        )
        assert limits.blocks_by_shared_memory == 2
        assert limits.blocks == 2
        assert limits.limiter == "shared_memory"

    def test_register_limited(self):
        limits = occupancy(
            GPUConfig(), threads_per_block=256, registers_per_thread=128
        )
        assert limits.blocks_by_registers == 2
        assert limits.limiter == "registers"

    def test_block_slot_limited(self):
        limits = occupancy(GPUConfig(), threads_per_block=32)
        assert limits.blocks == 32
        assert limits.limiter == "block_slots"

    def test_oversized_block_rejected(self):
        with pytest.raises(ConfigError):
            occupancy(GPUConfig(), threads_per_block=4096)

    def test_nonpositive_block_rejected(self):
        with pytest.raises(ConfigError):
            occupancy(GPUConfig(), threads_per_block=0)


class TestStreamingMultiprocessor:
    def test_peak_ipc_is_scheduler_width(self):
        sm = StreamingMultiprocessor(GPUConfig())
        assert sm.peak_ipc() == 2.0

    def test_achieved_ipc_latency_bound(self):
        sm = StreamingMultiprocessor(GPUConfig())
        # 8 warps each ready 10% of cycles -> 0.8 IPC.
        assert sm.achieved_ipc(8, 0.1) == pytest.approx(0.8)

    def test_achieved_ipc_saturates_at_peak(self):
        sm = StreamingMultiprocessor(GPUConfig())
        assert sm.achieved_ipc(64, 0.5) == 2.0

    def test_invalid_inputs(self):
        sm = StreamingMultiprocessor(GPUConfig())
        with pytest.raises(ConfigError):
            sm.achieved_ipc(-1, 0.5)
        with pytest.raises(ConfigError):
            sm.achieved_ipc(8, 1.5)

    def test_retire_and_assign(self):
        sm = StreamingMultiprocessor(GPUConfig())
        sm.assign(3)
        sm.retire(1000)
        assert sm.owner == 3
        assert sm.instructions_retired == 1000
        with pytest.raises(ConfigError):
            sm.retire(-1)
