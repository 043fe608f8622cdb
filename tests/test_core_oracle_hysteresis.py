"""Tests for the oracle partitioner (repro.core.oracle) and the
repartition-hysteresis option (Section 3.3's overhead discussion)."""

import pytest

from repro import (
    BPPolicy,
    MultitaskSystem,
    UGPUPolicy,
    build_application,
    build_mix,
)
from repro.core.oracle import OraclePartitioner
from repro.core.slices import ResourceAllocation
from repro.errors import AllocationError
from repro.gpu import GPUConfig


def kernels_for(*abbrs):
    return {
        i: build_application(a, app_id=i).kernels[0]
        for i, a in enumerate(abbrs)
    }


class TestOracleTwoWay:
    def test_finds_unbalanced_optimum(self):
        oracle = OraclePartitioner(GPUConfig())
        result = oracle.best_partition(kernels_for("PVC", "DXTC"))
        pvc, dxtc = result.allocations[0], result.allocations[1]
        assert pvc.channels > 16      # memory-bound app gets channels
        assert dxtc.sms > 40          # compute-bound app gets SMs
        assert result.evaluations > 50

    def test_oracle_beats_even_split(self):
        oracle = OraclePartitioner(GPUConfig())
        kernels = kernels_for("PVC", "DXTC")
        even = {
            0: ResourceAllocation(40, 16),
            1: ResourceAllocation(40, 16),
        }
        assert oracle.best_partition(kernels).stp > oracle.score(kernels, even)

    def test_oracle_conserves_budget(self):
        oracle = OraclePartitioner(GPUConfig())
        result = oracle.best_partition(kernels_for("LAVAMD", "CP"))
        assert sum(a.sms for a in result.allocations.values()) == 80
        assert sum(a.channels for a in result.allocations.values()) == 32

    def test_homogeneous_optimum_is_near_even(self):
        oracle = OraclePartitioner(GPUConfig())
        kernels = kernels_for("CP", "MRI-Q")
        result = oracle.best_partition(kernels)
        even = {0: ResourceAllocation(40, 16), 1: ResourceAllocation(40, 16)}
        assert result.stp <= oracle.score(kernels, even) * 1.05

    def test_empty_rejected(self):
        with pytest.raises(AllocationError):
            OraclePartitioner().best_partition({})

    def test_invalid_steps(self):
        with pytest.raises(AllocationError):
            OraclePartitioner(sm_step=0)


class TestOracleFourWay:
    def test_coordinate_descent_improves_on_even(self):
        oracle = OraclePartitioner(GPUConfig())
        kernels = kernels_for("PVC", "LAVAMD", "DXTC", "CP")
        result = oracle.best_partition(kernels)
        even = {i: ResourceAllocation(20, 8) for i in range(4)}
        assert result.stp > oracle.score(kernels, even)
        assert sum(a.sms for a in result.allocations.values()) == 80
        assert sum(a.channels for a in result.allocations.values()) == 32

    def test_minimums_respected(self):
        oracle = OraclePartitioner(GPUConfig())
        result = oracle.best_partition(
            kernels_for("PVC", "LBM", "DXTC", "CP")
        )
        for alloc in result.allocations.values():
            assert alloc.sms >= 4
            assert alloc.channels >= 4


class TestHysteresis:
    def test_default_reproduces_paper_behaviour(self):
        system = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=UGPUPolicy()
        )
        assert system.policy.hysteresis == 0.0
        system.run()
        assert system.repartitions >= 1
        assert system.policy.suppressed_repartitions == 0

    def test_large_hysteresis_suppresses_repartitioning(self):
        # A near-homogeneous pair: the algorithm finds tiny-gain moves
        # that a 50% hysteresis bar rejects.
        base = MultitaskSystem(
            build_mix(["BH", "DXTC"]).applications, policy=UGPUPolicy()
        )
        base.run()
        damped = MultitaskSystem(
            build_mix(["BH", "DXTC"]).applications,
            policy=UGPUPolicy(hysteresis=0.5),
        )
        damped.run()
        assert damped.repartitions < base.repartitions or (
            damped.policy.suppressed_repartitions > 0
        )

    def test_small_hysteresis_keeps_big_wins(self):
        bp = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=BPPolicy()
        ).run()
        damped = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications,
            policy=UGPUPolicy(hysteresis=0.05),
        )
        result = damped.run()
        assert result.stp > 1.1 * bp.stp  # the large gain still applies

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            MultitaskSystem(
                build_mix(["PVC", "DXTC"]).applications,
                policy=UGPUPolicy(hysteresis=-0.1),
            )
