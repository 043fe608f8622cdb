"""Unit tests for kernels, applications and the two-roofline performance
model (repro.gpu.kernel / repro.gpu.performance).

The scaling-shape tests here are the unit-level counterparts of the
Figure 2/3 reproduction benches.
"""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.gpu import Application, GPUConfig, Kernel, PerformanceModel


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
