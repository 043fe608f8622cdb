"""Unit tests for kernels, applications and the two-roofline performance
model (repro.gpu.kernel / repro.gpu.performance).

The scaling-shape tests here are the unit-level counterparts of the
Figure 2/3 reproduction benches.
"""

import dataclasses
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu import (
    Application,
    GPUConfig,
    Kernel,
    PerformanceModel,
    SliceThroughput,
)
from tests.strategies import STANDARD_SETTINGS
from tests.strategies.gpu import CONFIGS, configs, hexed, kernels


def compute_kernel(**overrides):
    """A DXTC-like kernel: almost no DRAM traffic.

    ``ipc_per_sm`` counts thread-level instructions (2 schedulers x 32
    lanes = 64 peak), matching how Table 2 MPKI values are normalized.
    """
    params = dict(
        name="compute",
        ipc_per_sm=64.0,
        apki_llc=1.0,
        llc_hit_rate=0.999,
        footprint_bytes=20 * 1024 * 1024,
    )
    params.update(overrides)
    return Kernel(**params)


def memory_kernel(**overrides):
    """A PVC-like kernel: streams through DRAM (MPKI 4.79 at 25% hits)."""
    params = dict(
        name="memory",
        ipc_per_sm=64.0,
        apki_llc=6.4,
        llc_hit_rate=0.25,
        footprint_bytes=3810 * 1024 * 1024,
    )
    params.update(overrides)
    return Kernel(**params)


@pytest.fixture
def model():
    return PerformanceModel(GPUConfig())


class TestKernel:
    def test_mpki_relation(self):
        k = Kernel("k", ipc_per_sm=2.0, apki_llc=10.0, llc_hit_rate=0.6,
                   footprint_bytes=0)
        assert k.mpki_llc == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Kernel("k", ipc_per_sm=0, apki_llc=1, llc_hit_rate=0.5, footprint_bytes=0)
        with pytest.raises(ConfigError):
            Kernel("k", ipc_per_sm=1, apki_llc=-1, llc_hit_rate=0.5, footprint_bytes=0)
        with pytest.raises(ConfigError):
            Kernel("k", ipc_per_sm=1, apki_llc=1, llc_hit_rate=1.5, footprint_bytes=0)

    def test_hash_is_the_field_hash_and_stays_out_of_pickles(self):
        """The cached hash equals the generated dataclass hash, and a
        pickle carries no hash into a process whose string hashes are
        salted differently."""
        k = memory_kernel()
        fields = tuple(getattr(k, f.name) for f in dataclasses.fields(k))
        assert hash(k) == hash(fields)
        copy = pickle.loads(pickle.dumps(k))
        assert vars(copy) == {f.name: getattr(k, f.name)
                              for f in dataclasses.fields(k)}
        assert copy == k and hash(copy) == hash(k)


class TestApplication:
    def make_app(self):
        kernels = [
            compute_kernel(name="k0", instructions=1000),
            compute_kernel(name="k1", instructions=2000),
        ]
        return Application(0, "app", kernels)

    def test_advance_within_kernel(self):
        app = self.make_app()
        assert app.advance(500) == 0
        assert app.progress.kernel_index == 0
        assert app.progress.instructions_done == 500

    def test_advance_crosses_kernel_boundary(self):
        app = self.make_app()
        assert app.advance(1500) == 1
        assert app.progress.kernel_index == 1
        assert app.progress.instructions_done == 500

    def test_relaunch_wraps_around(self):
        app = self.make_app()
        boundaries = app.advance(3500)  # full launch (3000) + 500
        assert boundaries == 2
        assert app.progress.launches == 1
        assert app.progress.kernel_index == 0
        assert app.first_run_instructions == 3000

    def test_reset(self):
        app = self.make_app()
        app.advance(3500)
        app.reset()
        assert app.progress.total_instructions == 0
        assert app.first_run_instructions is None

    def test_clone_has_fresh_state(self):
        app = self.make_app()
        app.advance(100)
        twin = app.clone(app_id=7)
        assert twin.app_id == 7
        assert twin.progress.total_instructions == 0

    def test_footprint_is_max_over_kernels(self):
        app = Application(0, "a", [
            compute_kernel(name="small", footprint_bytes=10),
            compute_kernel(name="big", footprint_bytes=100),
        ])
        assert app.footprint_bytes == 100

    def test_empty_kernel_list_rejected(self):
        with pytest.raises(ConfigError):
            Application(0, "empty", [])


class TestComputeBoundScaling:
    """Figure 2 shapes: compute-bound kernels scale with SMs, flat in MCs."""

    def test_linear_in_sms_at_16_channels(self, model):
        k = compute_kernel()
        ipcs = [model.throughput(k, s, 16).ipc for s in (20, 40, 60, 80)]
        assert ipcs[1] == pytest.approx(2 * ipcs[0])
        assert ipcs[3] == pytest.approx(4 * ipcs[0])

    def test_flat_in_channels_above_knee(self, model):
        k = compute_kernel()
        at16 = model.throughput(k, 40, 16).ipc
        at32 = model.throughput(k, 40, 32).ipc
        assert at32 == pytest.approx(at16)

    def test_drops_at_very_few_channels(self, model):
        # Even a compute-bound kernel collapses when the supply knee is
        # crossed (Figure 2a's left edge).
        k = compute_kernel(apki_llc=30.0)
        at16 = model.throughput(k, 40, 16).ipc
        at1 = model.throughput(k, 40, 1).ipc
        assert at1 < at16

    def test_classified_compute_bound(self, model):
        t = model.throughput(compute_kernel(), 40, 16)
        assert not t.memory_bound
        assert t.demand_supply_ratio < 1.0


class TestMemoryBoundScaling:
    """Figure 3 shapes: memory-bound kernels scale with MCs, flat in SMs."""

    def test_linear_in_channels_with_enough_sms(self, model):
        k = memory_kernel()
        ipcs = [model.throughput(k, 40, m).ipc for m in (4, 8, 16)]
        assert ipcs[1] == pytest.approx(2 * ipcs[0], rel=0.05)
        assert ipcs[2] == pytest.approx(4 * ipcs[0], rel=0.05)

    def test_flat_in_sms_above_saturation(self, model):
        k = memory_kernel()
        at40 = model.throughput(k, 40, 16).ipc
        at80 = model.throughput(k, 80, 16).ipc
        assert at80 == pytest.approx(at40)

    def test_declines_when_sms_cannot_saturate(self, model):
        # Figure 3b: performance decreases once too few SMs remain.
        k = memory_kernel()
        at40 = model.throughput(k, 40, 16).ipc
        at8 = model.throughput(k, 8, 16).ipc
        assert at8 < at40

    def test_classified_memory_bound(self, model):
        t = model.throughput(memory_kernel(), 40, 16)
        assert t.memory_bound
        assert t.demand_supply_ratio > 1.0

    def test_saturation_knee_in_channels(self, model):
        # With only 20 SMs the channel scaling turns sub-linear well
        # before 32 channels (Figure 3a "increases slowly"): the last 8
        # channels buy much less than proportional.
        k = memory_kernel()
        at8 = model.throughput(k, 20, 8).ipc
        at16 = model.throughput(k, 20, 16).ipc
        at24 = model.throughput(k, 20, 24).ipc
        at32 = model.throughput(k, 20, 32).ipc
        early_slope = (at16 - at8) / 8
        late_slope = (at32 - at24) / 8
        assert late_slope < 0.75 * early_slope


class TestModelEdges:
    def test_zero_sms_zero_ipc(self, model):
        assert model.throughput(memory_kernel(), 0, 16).ipc == 0.0

    def test_zero_channels_zero_ipc_for_memory_user(self, model):
        assert model.throughput(memory_kernel(), 40, 0).ipc == 0.0

    def test_negative_slice_rejected(self, model):
        with pytest.raises(ConfigError):
            model.throughput(memory_kernel(), -1, 16)

    def test_normalized_progress_full_gpu_is_one(self, model):
        assert model.normalized_progress(compute_kernel(), 80, 32) == pytest.approx(1.0)

    def test_normalized_progress_half_gpu_compute_bound(self, model):
        np = model.normalized_progress(compute_kernel(), 40, 16)
        assert np == pytest.approx(0.5)

    def test_dram_traffic_reflects_misses(self, model):
        t = model.throughput(memory_kernel(), 40, 16)
        expected = t.ipc * (6.4 / 1000) * 128 * (1 - t.llc_hit_rate)
        assert t.dram_bytes_per_cycle == pytest.approx(expected)


def reference_throughput(cfg, kernel, s, m) -> dict:
    """The roofline written out from the config's fields, in the order
    and association of Equations 1-2 and the MLP draw law as the model
    has always evaluated them (``demand_bytes_per_cycle``,
    ``supply_bytes_per_cycle``, ``GPUConfig.draw_bytes_per_cycle``)."""
    channels = cfg.hbm.num_stacks * cfg.hbm.channels_per_stack
    line = cfg.llc_line_bytes
    bytes_per_instr = (kernel.apki_llc / 1000.0) * line
    hit = kernel.hit_rate_at(m * (cfg.llc_size // channels))
    compute_roof = s * kernel.ipc_per_sm
    if m <= 0:
        supply = 0.0
    else:
        llc_bw_ch = (cfg.llc_slices // channels) * (cfg.llc_line_bytes / 4)
        mem_bw_ch = ((cfg.hbm.total_bandwidth_gbps / channels) * 1e9
                     / (cfg.sm_freq_ghz * 1e9))
        per_channel = hit * llc_bw_ch + min((1.0 - hit) * llc_bw_ch, mem_bw_ch)
        supply = m * per_channel
    if bytes_per_instr > 0:
        bandwidth_roof = supply / bytes_per_instr
        latency_ratio = cfg.llc_latency_cycles / cfg.dram_latency_cycles
        scale = 1.0 - (1.0 - latency_ratio) * min(max(hit, 0.0), 1.0)
        draw = (cfg.mlp_draw_coefficient * (s * m) ** cfg.mlp_draw_exponent
                / max(scale, latency_ratio))
        mlp_roof = draw / bytes_per_instr
    else:
        bandwidth_roof = float("inf")
        mlp_roof = float("inf")
    ipc = min(compute_roof, bandwidth_roof, mlp_roof)
    if s == 0 or (m == 0 and bytes_per_instr > 0):
        ipc = 0.0
    return hexed(SimpleNamespace(
        ipc=ipc,
        compute_roof=compute_roof,
        bandwidth_roof=bandwidth_roof,
        mlp_roof=mlp_roof,
        demand_bytes_per_cycle=(
            s * kernel.ipc_per_sm * (kernel.apki_llc / 1000.0) * line),
        supply_bytes_per_cycle=supply,
        dram_bytes_per_cycle=ipc * bytes_per_instr * (1.0 - hit),
        llc_hit_rate=hit,
    ))


class TestRooflineBits:
    """Every field of every memo miss is bitwise the written-out
    reference, on Table 1 and on two machines that differ from it in
    every constant the model reads (one fresh model per example)."""

    @STANDARD_SETTINGS
    @given(cfg=configs, kernel=kernels,
           s=st.one_of(st.just(0), st.integers(min_value=0, max_value=80)),
           m=st.one_of(st.just(0), st.integers(min_value=0, max_value=32)))
    def test_every_field_matches_the_reference(self, cfg, kernel, s, m):
        m = min(m, cfg.num_channels)
        got = PerformanceModel(cfg).throughput(kernel, s, m)
        assert hexed(got) == reference_throughput(cfg, kernel, s, m)

    def test_models_of_different_configs_disagree(self):
        """The variants really move every result, so a constant cached
        from the wrong config cannot pass the property above."""
        kernel = memory_kernel()
        results = [hexed(PerformanceModel(cfg).throughput(kernel, 8, 8))
                   for cfg in CONFIGS]
        for name in ("supply_bytes_per_cycle", "mlp_roof"):
            assert len({r[name] for r in results}) == len(CONFIGS), name

    def test_draw_and_equation_methods_match_the_reference(self):
        for cfg in CONFIGS:
            model = PerformanceModel(cfg)
            kernel = memory_kernel()
            want = reference_throughput(cfg, kernel, 20, 8)
            assert (model.supply_bytes_per_cycle(kernel, 8).hex()
                    == want["supply_bytes_per_cycle"])
            assert (model.demand_bytes_per_cycle(kernel, 20).hex()
                    == want["demand_bytes_per_cycle"])
            bytes_per_instr = (kernel.apki_llc / 1000.0) * cfg.llc_line_bytes
            draw = cfg.draw_bytes_per_cycle(20, 8, kernel.llc_hit_rate)
            assert (draw / bytes_per_instr).hex() == want["mlp_roof"]


class TestSliceThroughputRecord:
    def record(self, model):
        return model.throughput(memory_kernel(), 40, 16)

    def test_immutable(self, model):
        with pytest.raises(AttributeError):
            self.record(model).ipc = 1.0

    def test_equal_and_hashed_by_value(self, model):
        record = self.record(model)
        twin = PerformanceModel(GPUConfig()).throughput(memory_kernel(), 40, 16)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
        assert record != model.throughput(memory_kernel(), 40, 8)

    def test_pickle_round_trip(self, model):
        record = self.record(model)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is SliceThroughput
        assert copy == record and hexed(copy) == hexed(record)

    def test_properties(self, model):
        record = self.record(model)
        assert record.memory_bound is True
        assert record.demand_supply_ratio == pytest.approx(
            record.demand_bytes_per_cycle / record.supply_bytes_per_cycle)
        compute = model.throughput(compute_kernel(), 40, 16)
        assert compute.memory_bound is False
