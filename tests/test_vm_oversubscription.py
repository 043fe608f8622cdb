"""Unit and integration tests for memory-oversubscription support
(repro.vm.oversubscription and its wiring into the system simulations)."""

import pytest

from repro import BPPolicy, MultitaskSystem, UGPUPolicy
from repro.errors import ConfigError
from repro.gpu import Application, GPUConfig, Kernel
from repro.units import GB
from repro.vm.oversubscription import FaultOverheadModel

TOTAL_MEMORY = 16 * GB


@pytest.fixture
def model():
    return FaultOverheadModel(GPUConfig())


class TestFaultOverheadModel:
    def test_fitting_workload_is_free(self, model):
        charge = model.charge(footprint_bytes=1 * GB, capacity_bytes=8 * GB,
                              dram_bytes_per_cycle=100.0)
        assert not charge.oversubscribed
        assert charge.throughput_factor == 1.0
        assert charge.faults_per_cycle == 0.0

    def test_overflow_fraction(self, model):
        charge = model.charge(12 * GB, 8 * GB, dram_bytes_per_cycle=100.0)
        assert charge.overflow_fraction == pytest.approx(1 - 8 / 12)
        assert charge.oversubscribed

    def test_factor_decreases_with_overflow(self, model):
        factors = [
            model.charge(f * GB, 8 * GB, 100.0).throughput_factor
            for f in (8, 10, 12, 16)
        ]
        assert factors[0] == 1.0
        assert factors == sorted(factors, reverse=True)

    def test_factor_decreases_with_traffic(self, model):
        light = model.charge(12 * GB, 8 * GB, 10.0).throughput_factor
        heavy = model.charge(12 * GB, 8 * GB, 400.0).throughput_factor
        assert heavy < light < 1.0

    def test_more_channels_mean_more_capacity(self, model):
        assert model.capacity_for_channels(16, TOTAL_MEMORY) == TOTAL_MEMORY / 2
        assert model.capacity_for_channels(32, TOTAL_MEMORY) == TOTAL_MEMORY

    def test_zero_footprint_is_free(self, model):
        assert model.charge(0, 0, 100.0).throughput_factor == 1.0

    def test_validation(self, model):
        with pytest.raises(ConfigError):
            FaultOverheadModel(GPUConfig(), page_size=0)
        with pytest.raises(ConfigError):
            model.charge(-1, 0, 0)
        with pytest.raises(ConfigError):
            model.capacity_for_channels(-1, TOTAL_MEMORY)


def oversubscribed_app(app_id=0, footprint_gb=12):
    """A streaming kernel whose working set exceeds the even-split 8 GB."""
    return Application(app_id, "HOG", [Kernel(
        name="hog",
        ipc_per_sm=64.0,
        apki_llc=6.0,
        llc_hit_rate=0.25,
        footprint_bytes=footprint_gb * GB,
        instructions=6_000_000_000,
    )])


def small_compute_app(app_id=1):
    return Application(app_id, "TINY", [Kernel(
        name="tiny",
        ipc_per_sm=64.0,
        apki_llc=1.2,
        llc_hit_rate=0.9997,
        footprint_bytes=20 * 1024 * 1024,
        instructions=6_000_000_000,
    )])


class TestSystemIntegration:
    def test_bp_pays_fault_overhead(self):
        apps = [oversubscribed_app(), small_compute_app()]
        with_faults = MultitaskSystem(
            apps, total_memory_bytes=TOTAL_MEMORY, policy=BPPolicy()
        ).run()
        apps2 = [oversubscribed_app(), small_compute_app()]
        without = MultitaskSystem(apps2, policy=BPPolicy()).run()
        hog_with = next(r for r in with_faults.runs if r.name == "HOG")
        hog_without = next(r for r in without.runs if r.name == "HOG")
        assert hog_with.ipc < hog_without.ipc

    def test_ugpu_grants_channels_to_oversubscribed_app(self):
        """The capacity extension: an oversubscribed app is treated as
        memory-bound and receives channels, which carry capacity and cut
        the fault overhead (the paper's stated behaviour)."""
        apps = [oversubscribed_app(), small_compute_app()]
        system = MultitaskSystem(
            apps, total_memory_bytes=TOTAL_MEMORY, policy=UGPUPolicy()
        )
        ugpu = system.run()
        assert system.apps[0].allocation.channels > 16

        apps2 = [oversubscribed_app(), small_compute_app()]
        bp = MultitaskSystem(
            apps2, total_memory_bytes=TOTAL_MEMORY, policy=BPPolicy()
        ).run()
        assert ugpu.stp > bp.stp
        hog_ugpu = next(r for r in ugpu.runs if r.name == "HOG")
        hog_bp = next(r for r in bp.runs if r.name == "HOG")
        assert hog_ugpu.normalized_progress > hog_bp.normalized_progress

    def test_capacity_pressure_alone_classifies_memory_bound(self):
        """Even a compute-profile app gets channels if its working set
        does not fit (Section 3.2's capacity rule)."""
        hog = Application(0, "CHOG", [Kernel(
            name="chog", ipc_per_sm=64.0, apki_llc=1.2, llc_hit_rate=0.9997,
            footprint_bytes=12 * GB, instructions=6_000_000_000,
        )])
        system = MultitaskSystem(
            [hog, small_compute_app()],
            total_memory_bytes=TOTAL_MEMORY,
            policy=UGPUPolicy(),
        )
        system.run()
        # 12 GB needs 24 of 32 channels' worth of capacity.
        assert system.apps[0].allocation.channels >= 24

    def test_solo_run_unaffected_when_fitting(self):
        apps = [oversubscribed_app(footprint_gb=4), small_compute_app()]
        result = MultitaskSystem(
            apps, total_memory_bytes=TOTAL_MEMORY, policy=BPPolicy()
        ).run()
        # 4 GB fits the 8 GB share: no overhead anywhere, NP ~0.5.
        hog = next(r for r in result.runs if r.name == "HOG")
        assert hog.normalized_progress > 0.4
