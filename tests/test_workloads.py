"""Unit tests for the workload catalog and mix builders
(repro.workloads)."""

import pytest

from repro.errors import ConfigError
from repro.gpu import GPUConfig, PerformanceModel
from repro.workloads import (
    AI_MODELS,
    COMPUTE_BOUND_ABBRS,
    MEMORY_BOUND_ABBRS,
    TABLE2,
    all_pairs,
    build_ai_application,
    build_application,
    build_mix,
    catalog,
    eight_program_mixes,
    four_program_mixes,
    heterogeneous_pairs,
    homogeneous_pairs,
    hotset_trace,
    spec_for,
    streaming_trace,
    strided_trace,
    synthetic_kernel,
)


class TestTable2Catalog:
    def test_fifteen_benchmarks(self):
        assert len(TABLE2) == 15
        assert len(catalog()) == 15

    def test_class_split_matches_paper(self):
        # 10 memory-bound x 5 compute-bound gives the paper's 50
        # heterogeneous and 55 homogeneous pairs.
        assert len(MEMORY_BOUND_ABBRS) == 10
        assert len(COMPUTE_BOUND_ABBRS) == 5

    def test_published_columns(self):
        pvc = spec_for("PVC")
        assert pvc.mpki == 4.79
        assert pvc.num_kernels == 1
        assert pvc.footprint_mb == 3810
        dxtc = spec_for("DXTC")
        assert dxtc.mpki == 0.0004
        assert dxtc.num_kernels == 2
        assert dxtc.footprint_mb == 20

    def test_apki_consistent_with_mpki(self):
        for spec in TABLE2:
            implied_mpki = spec.apki_llc * (1 - spec.llc_hit_rate)
            assert implied_mpki == pytest.approx(spec.mpki, rel=1e-9)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError):
            spec_for("NOPE")

    def test_classification_matches_performance_model(self):
        """Every catalog entry lands on the right side of the Equation 1/2
        boundary at the even partition (40 SMs / 16 channels)."""
        model = PerformanceModel(GPUConfig())
        for spec in TABLE2:
            app = build_application(spec.abbr, with_hit_curve=False)
            t = model.throughput(app.kernels[0], 40, 16)
            if spec.memory_bound:
                assert t.demand_supply_ratio > 1.0, spec.abbr
            else:
                assert t.demand_supply_ratio < 1.0, spec.abbr


class TestBuildApplication:
    def test_kernel_count_matches_table(self):
        for spec in TABLE2:
            app = build_application(spec.abbr)
            assert len(app.kernels) == spec.num_kernels

    def test_footprint_matches_table(self):
        app = build_application("SRAD")
        assert app.footprint_bytes == 1048 * 1024 * 1024

    def test_kernel_names_are_distinct(self):
        app = build_application("BH")  # 14 kernels
        names = [k.name for k in app.kernels]
        assert len(set(names)) == 14

    def test_deterministic_construction(self):
        a = build_application("EULER3D")
        b = build_application("EULER3D")
        assert [k.apki_llc for k in a.kernels] == [k.apki_llc for k in b.kernels]

    def test_hit_curve_attached_by_default(self):
        app = build_application("PVC")
        assert app.kernels[0].hit_curve is not None
        assert build_application("PVC", with_hit_curve=False).kernels[0].hit_curve is None

    def test_builds_share_kernels_but_not_state(self):
        """Kernels are built once per process; each call still returns
        its own Application, progress cursor and kernel list."""
        a = build_application("LBM", app_id=1)
        b = build_application("LBM", app_id=2)
        assert a is not b and a.progress is not b.progress
        assert a.kernels is not b.kernels
        assert all(x is y for x, y in zip(a.kernels, b.kernels))
        assert (a.app_id, b.app_id) == (1, 2)
        a.advance(a.kernels[0].instructions + 5)
        a.kernels.append(a.kernels[0])
        c = build_application("LBM")
        for fresh in (b, c):
            assert len(fresh.kernels) == 3
            assert (fresh.progress.kernel_index,
                    fresh.progress.instructions_done,
                    fresh.progress.total_instructions) == (0, 0, 0)
        assert (a.progress.kernel_index, a.progress.instructions_done) == (1, 5)

    def test_kernel_length_follows_instructions_per_kernel(self):
        short = build_application("PVC", instructions_per_kernel=1000)
        long = build_application("PVC", instructions_per_kernel=2000)
        assert [k.instructions for k in short.kernels] == [1000]
        assert [k.instructions for k in long.kernels] == [2000]

    @pytest.mark.parametrize("abbr, ipk", [("PVC", 0), ("LBM", -5)])
    def test_non_positive_instructions_per_kernel_rejected(self, abbr, ipk):
        with pytest.raises(ConfigError, match=f"{abbr}: instructions_per_kernel "
                                              f"must be positive, got {ipk}"):
            build_application(abbr, instructions_per_kernel=ipk)
        with pytest.raises(ConfigError, match="instructions_per_kernel"):
            build_mix([abbr], instructions_per_kernel=ipk)


class TestMixes:
    def test_pair_counts_match_paper(self):
        assert len(heterogeneous_pairs()) == 50
        assert len(homogeneous_pairs()) == 55
        assert len(all_pairs()) == 105

    def test_heterogeneous_pairs_cross_classes(self):
        for m, c in heterogeneous_pairs():
            assert m in MEMORY_BOUND_ABBRS
            assert c in COMPUTE_BOUND_ABBRS

    def test_build_mix(self):
        mix = build_mix(["PVC", "DXTC"])
        assert mix.name == "PVC_DXTC"
        assert mix.heterogeneous
        assert [a.app_id for a in mix.applications] == [0, 1]

    def test_homogeneous_mix_flagged(self):
        assert not build_mix(["PVC", "LBM"]).heterogeneous

    def test_four_program_mixes(self):
        mixes = four_program_mixes(count=10)
        assert len(mixes) == 10
        for mix in mixes:
            assert mix.num_programs == 4
            classes = [spec_for(a).memory_bound for a in mix.abbrs]
            assert sum(classes) == 2  # two memory-bound, two compute-bound

    def test_eight_program_mixes_composition(self):
        mixes = eight_program_mixes(count=20)
        assert len(mixes) == 20
        for mix in mixes:
            classes = [spec_for(a).memory_bound for a in mix.abbrs]
            assert sum(classes) == 4

    def test_mix_sampling_deterministic(self):
        a = [m.name for m in eight_program_mixes(count=5, seed=7)]
        b = [m.name for m in eight_program_mixes(count=5, seed=7)]
        assert a == b

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            build_mix([])


class TestAIModels:
    def test_five_models(self):
        assert set(AI_MODELS) == {"AlexNet", "ResNet", "SqueezeNet", "GRU", "LSTM"}

    def test_alexnet_layers(self):
        app = build_ai_application("AlexNet")
        assert len(app.kernels) == 10
        assert any("fc" in k.name for k in app.kernels)

    def test_recurrent_models_are_memory_heavy(self):
        model = PerformanceModel(GPUConfig())
        lstm = build_ai_application("LSTM")
        t = model.throughput(lstm.kernels[0], 40, 16)
        assert t.demand_supply_ratio > 1.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            build_ai_application("GPT5")


class TestSyntheticGenerators:
    def test_streaming_trace(self):
        trace = streaming_trace(4)
        assert trace == [0, 128, 256, 384]

    def test_strided_trace_wraps(self):
        trace = strided_trace(4, stride_bytes=256, wrap_bytes=512)
        assert trace == [0, 256, 0, 256]

    def test_hotset_trace_respects_regions(self):
        trace = hotset_trace(1000, hot_bytes=1024, cold_bytes=4096,
                             hot_fraction=0.9, seed=3)
        hot = sum(1 for a in trace if a < 1024)
        assert 0.8 < hot / len(trace) <= 1.0

    def test_hotset_deterministic(self):
        assert hotset_trace(100, 1024, 4096, seed=5) == hotset_trace(
            100, 1024, 4096, seed=5
        )

    def test_synthetic_kernel_dial(self):
        model = PerformanceModel(GPUConfig())
        compute = synthetic_kernel(intensity=0.0)
        memory = synthetic_kernel(intensity=1.0)
        tc = model.throughput(compute, 40, 16)
        tm = model.throughput(memory, 40, 16)
        assert tc.demand_supply_ratio < 1.0 < tm.demand_supply_ratio

    def test_synthetic_kernel_bounds(self):
        with pytest.raises(ConfigError):
            synthetic_kernel(intensity=1.5)

    def test_trace_validation(self):
        with pytest.raises(ConfigError):
            streaming_trace(-1)
        with pytest.raises(ConfigError):
            strided_trace(10, 0, 100)
        with pytest.raises(ConfigError):
            hotset_trace(10, 0, 100)
