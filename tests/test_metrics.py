"""Unit tests for STP/ANTT and the energy model (repro.metrics)."""

import pytest

from repro.errors import ConfigError
from repro.gpu import GPUConfig
from repro.metrics import AppRun, EnergyModel, antt, normalized_progress, stp, summarize
from repro.metrics.energy import EnergyLedger


def run(ipc, alone, name="a", app_id=0):
    return AppRun(app_id=app_id, name=name, ipc=ipc, ipc_alone=alone)


class TestAppRun:
    def test_normalized_progress_and_slowdown(self):
        r = run(50, 100)
        assert r.normalized_progress == 0.5
        assert r.slowdown == 2.0

    def test_stalled_app_has_infinite_slowdown(self):
        assert run(0, 100).slowdown == float("inf")

    def test_validation(self):
        with pytest.raises(ConfigError):
            run(-1, 100)
        with pytest.raises(ConfigError):
            run(1, 0)


class TestSTPANTT:
    def test_equation3_stp(self):
        runs = [run(50, 100), run(25, 100, "b", 1)]
        assert stp(runs) == pytest.approx(0.75)

    def test_equation4_antt(self):
        runs = [run(50, 100), run(25, 100, "b", 1)]
        assert antt(runs) == pytest.approx((2 + 4) / 2)

    def test_perfect_system(self):
        runs = [run(100, 100), run(100, 100, "b", 1)]
        assert stp(runs) == 2.0
        assert antt(runs) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            stp([])
        with pytest.raises(ConfigError):
            antt([])

    def test_summarize(self):
        runs = [run(50, 100), run(75, 100, "b", 1)]
        summary = summarize(runs)
        assert summary["stp"] == pytest.approx(1.25)
        assert summary["min_np"] == pytest.approx(0.5)

    def test_normalized_progress_function(self):
        assert normalized_progress(30, 60) == 0.5
        with pytest.raises(ConfigError):
            normalized_progress(1, 0)
        with pytest.raises(ConfigError):
            normalized_progress(-1, 1)


class TestEnergyModel:
    def test_static_energy_scales_with_time(self):
        model = EnergyModel()
        e1 = model.energy(cycles=1e6, instructions=0, dram_bytes=0)
        e2 = model.energy(cycles=2e6, instructions=0, dram_bytes=0)
        assert e2.core_static == pytest.approx(2 * e1.core_static)
        assert e2.mem_static == pytest.approx(2 * e1.mem_static)

    def test_dynamic_energy_scales_with_work(self):
        model = EnergyModel()
        e = model.energy(cycles=1e6, instructions=1e9, dram_bytes=1e9)
        assert e.core_dynamic == pytest.approx(1e9 * 9.0 * 1e-12)
        assert e.mem_dynamic == pytest.approx(1e9 * 14.0 * 1e-12)

    def test_migration_energy_charged_both_sides(self):
        model = EnergyModel()
        e = model.energy(cycles=1e6, instructions=0, dram_bytes=0,
                         migrated_bytes=1e6)
        assert e.migration == pytest.approx(1e6 * (2 * 14 + 9) * 1e-12)

    def test_figure12b_split_shape(self):
        """Core dominates; HBM is a limited share (88.3/11.6 in the paper,
        up to ~30% for memory-heavy mixes)."""
        model = EnergyModel()
        # A BP-like run: 25M cycles, ~10G instructions, ~10 GB of DRAM.
        e = model.energy(cycles=25e6, instructions=10e9, dram_bytes=10e9)
        assert 0.05 < e.memory_fraction < 0.35
        assert e.core > e.memory

    def test_totals_add_up(self):
        e = EnergyModel().energy(1e6, 1e9, 1e9, 1e6)
        assert e.total == pytest.approx(e.core + e.memory)

    def test_validation(self):
        with pytest.raises(ConfigError):
            EnergyModel(core_static_watts=-1)
        with pytest.raises(ConfigError):
            EnergyModel().energy(-1, 0, 0)

    def test_ledger_equals_summed_breakdowns_to_the_bit(self):
        model = EnergyModel()
        runs = [(1_234_567, 3.1e8), (0, 0.0), (987_654_321, 1.7e9 / 3)]
        ledger = EnergyLedger(model)
        ledger.add(2_500_000, runs)
        ledger.add(1_000_001, runs[::-1])
        sums = [0.0] * 4
        for cycles, batch in ((2_500_000, runs), (1_000_001, runs[::-1])):
            for instructions, dram_bytes in batch:
                e = model.energy(cycles, instructions, dram_bytes)
                for i, part in enumerate((e.core_static, e.core_dynamic,
                                          e.mem_static, e.mem_dynamic)):
                    sums[i] += part
        total = ledger.breakdown(0.5)
        assert [total.core_static, total.core_dynamic, total.mem_static,
                total.mem_dynamic] == sums
        assert total.migration == 0.5

    def test_ledger_rejects_negative_inputs(self):
        with pytest.raises(ConfigError, match="non-negative"):
            EnergyLedger(EnergyModel()).add(2_500_000, [(10, -1.0)])


class TestFairness:
    def make_runs(self, *nps):
        return [run(np_value * 100, 100, name=f"a{i}", app_id=i)
                for i, np_value in enumerate(nps)]

    def test_fairness_index_perfect(self):
        from repro.metrics import fairness_index
        assert fairness_index(self.make_runs(0.5, 0.5)) == 1.0

    def test_fairness_index_skew(self):
        from repro.metrics import fairness_index
        assert fairness_index(self.make_runs(0.25, 0.75)) == pytest.approx(1 / 3)

    def test_harmonic_mean_is_reciprocal_antt(self):
        from repro.metrics import harmonic_mean_np
        runs = self.make_runs(0.5, 0.25)
        assert harmonic_mean_np(runs) == pytest.approx(1 / antt(runs))

    def test_jains_index_bounds(self):
        from repro.metrics import jains_index
        assert jains_index(self.make_runs(0.5, 0.5, 0.5)) == pytest.approx(1.0)
        skewed = jains_index(self.make_runs(0.9, 0.01, 0.01))
        assert 1 / 3 <= skewed < 0.5

    def test_empty_rejected(self):
        from repro.metrics import fairness_index, harmonic_mean_np, jains_index
        for fn in (fairness_index, harmonic_mean_np, jains_index):
            with pytest.raises(ConfigError):
                fn([])

    def test_ugpu_fairer_than_bp_bs(self):
        """UGPU's demand matching raises the fairness floor the big/small
        static splits destroy."""
        from repro import (
            BPBigSmallPolicy,
            MultitaskSystem,
            UGPUPolicy,
            build_mix,
        )
        from repro.metrics import fairness_index
        bs = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=BPBigSmallPolicy()
        ).run()
        ugpu = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=UGPUPolicy()
        ).run()
        assert fairness_index(ugpu.runs) > fairness_index(bs.runs)
