"""Integration tests for the system simulations: the shared runner
(repro.core.system) composing UGPU, the BP variants, MPS and CD-Search
(repro.policies)."""

import pytest

from repro import (
    BPBigSmallPolicy,
    BPPolicy,
    BPSmallBigPolicy,
    CDSearchPolicy,
    MigrationMode,
    MPSPolicy,
    MultitaskSystem,
    QoSTarget,
    UGPUPolicy,
    build_mix,
)
from repro.errors import ConfigError
from repro.metrics import EnergyModel


def het_mix():
    return build_mix(["PVC", "DXTC"])


def het_system(policy, **kwargs):
    """The runner over a fresh PVC+DXTC mix, composing ``policy``."""
    return MultitaskSystem(het_mix().applications, policy=policy, **kwargs)


class TestBPSystem:
    def test_even_partition_and_no_repartitioning(self):
        result = het_system(BPPolicy()).run()
        assert result.policy == "BP"
        assert result.repartitions == 0
        assert all(e.migration_fraction == 0 for e in result.epochs)

    def test_bp_np_close_to_half(self):
        result = het_system(BPPolicy()).run()
        for run in result.runs:
            assert 0.4 <= run.normalized_progress <= 0.6

    def test_big_small_variants_are_mirror_images(self):
        bs = het_system(BPBigSmallPolicy()).run()
        sb = het_system(BPSmallBigPolicy()).run()
        # PVC gets the big partition in BS, the small one in SB.
        np_bs = {r.name: r.normalized_progress for r in bs.runs}
        np_sb = {r.name: r.normalized_progress for r in sb.runs}
        assert np_bs["PVC"] > np_sb["PVC"]
        assert np_bs["DXTC"] < np_sb["DXTC"]

    def test_unequal_partitions_do_not_beat_bp_much(self):
        """Figure 10's message: BP, BP-BS and BP-SB are all similar."""
        bp = het_system(BPPolicy()).run()
        bs = het_system(BPBigSmallPolicy()).run()
        sb = het_system(BPSmallBigPolicy()).run()
        for variant in (bs, sb):
            assert abs(variant.stp - bp.stp) < 0.35 * bp.stp

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            MultitaskSystem([], policy=BPPolicy())


class TestUGPUSystem:
    def test_beats_bp_on_heterogeneous_mix(self):
        bp = het_system(BPPolicy()).run()
        ugpu = het_system(UGPUPolicy()).run()
        assert ugpu.stp > 1.15 * bp.stp
        assert ugpu.antt < bp.antt

    def test_gives_memory_bound_app_channels(self):
        system = het_system(UGPUPolicy())
        system.run()
        assert system.apps[0].allocation.channels > 16   # PVC
        assert system.apps[1].allocation.sms > 40        # DXTC

    def test_offline_beats_online(self):
        online = het_system(UGPUPolicy()).run()
        offline = het_system(UGPUPolicy(offline=True)).run()
        assert offline.policy == "UGPU-offline"
        assert offline.stp >= online.stp
        assert offline.repartitions == 0

    def test_mode_ordering_matches_figure11(self):
        """BP > UGPU-Ori; UGPU-Soft between Ori and full UGPU."""
        bp = het_system(BPPolicy()).run()
        ugpu = het_system(UGPUPolicy()).run()
        soft = het_system(UGPUPolicy(mode=MigrationMode.SOFTWARE)).run()
        ori = het_system(UGPUPolicy(mode=MigrationMode.TRADITIONAL)).run()
        assert ori.stp < bp.stp
        assert ori.stp < soft.stp < ugpu.stp

    def test_homogeneous_mix_stays_balanced(self):
        system = MultitaskSystem(
            build_mix(["PVC", "LAVAMD"]).applications, policy=UGPUPolicy()
        )
        result = system.run()
        assert system.apps[0].allocation.channels == 16
        assert result.repartitions == 0

    def test_migration_fraction_bounded(self):
        result = het_system(UGPUPolicy()).run()
        assert all(f <= 0.25 for f in result.migration_fractions())

    def test_energy_accounting(self):
        result = het_system(UGPUPolicy(), energy_model=EnergyModel()).run()
        assert result.energy is not None
        assert result.energy.total > 0
        assert 0.05 < result.energy.memory_fraction < 0.45

    def test_qos_target_met(self):
        # DXTC (app 1) is the high-priority app with a 0.75 NP floor.
        result = het_system(
            UGPUPolicy(qos=QoSTarget(app_id=1, target_np=0.75))
        ).run()
        dxtc = next(r for r in result.runs if r.name == "DXTC")
        assert dxtc.normalized_progress >= 0.70  # small online slack

    def test_four_program_mix(self):
        mix = build_mix(["PVC", "LAVAMD", "DXTC", "CP"])
        bp = MultitaskSystem(
            build_mix(["PVC", "LAVAMD", "DXTC", "CP"]).applications,
            policy=BPPolicy(),
        ).run()
        ugpu = MultitaskSystem(mix.applications, policy=UGPUPolicy()).run()
        assert ugpu.stp > bp.stp

    def test_result_metadata(self):
        result = het_system(UGPUPolicy()).run(mix_name="PVC_DXTC")
        assert result.mix_name == "PVC_DXTC"
        assert result.total_cycles == 25_000_000
        assert len(result.epochs) == 5


class TestMPSSystem:
    def test_mps_shares_memory(self):
        result = het_system(MPSPolicy()).run()
        assert result.policy == "MPS"
        # The compute-bound app suffers from contention: NP below its
        # BP entitlement for SM share 40/80 is possible but bounded.
        assert 0 < result.stp < 2

    def test_mps_contention_hurts_coexecuting_compute_app(self):
        """Figure 16: without isolation the high-priority app can fall
        below the QoS floor that BP/UGPU guarantee."""
        mps = het_system(MPSPolicy(sm_assignment={1: 60, 0: 20})).run()
        bp = het_system(BPPolicy(qos_big_first=False)).run()
        dxtc_mps = next(r for r in mps.runs if r.name == "DXTC")
        # With 60 SMs DXTC would reach 0.75 NP alone; contention can eat
        # into it (or not, for mild co-runners) - it must never exceed it.
        assert dxtc_mps.normalized_progress <= 0.76

    def test_invalid_contention_overhead(self):
        with pytest.raises(Exception):
            het_system(MPSPolicy(contention_overhead=1.5))

    def test_in_epoch_kernel_crossing_reaches_later_residents(self):
        """Each resident's contention total is taken at its own turn in
        the epoch, after the residents before it advanced: EULER3D
        crosses kernel boundaries inside epochs, and CP, evaluated after
        it, sees EULER3D's next kernel in the total.  A total taken once
        per epoch changes these bits."""
        result = MultitaskSystem(
            build_mix(["EULER3D", "CP"]).applications,
            policy=MPSPolicy(sm_assignment={1: 60, 0: 20}),
        ).run(25_000_000)
        assert result.stp.hex() == "0x1.394b4841821e2p+0"
        assert [(run.name, run.ipc.hex()) for run in result.runs] == [
            ("EULER3D", "0x1.ac022e59da91ep+9"),
            ("CP", "0x1.bd5feadd83ff3p+11"),
        ]


class TestCDSearchSystem:
    def test_moves_sms_but_not_channels(self):
        system = het_system(CDSearchPolicy())
        result = system.run()
        assert system.apps[0].allocation.channels == 16
        assert system.apps[1].allocation.channels == 16
        assert system.apps[1].allocation.sms > 40

    def test_between_bp_and_ugpu(self):
        """Figure 13's ordering: BP < BP(CD-Search) < UGPU."""
        bp = het_system(BPPolicy()).run()
        cd = het_system(CDSearchPolicy()).run()
        ugpu = het_system(UGPUPolicy()).run()
        assert bp.stp < cd.stp < ugpu.stp


class TestEpochAllocationTraces:
    def test_allocation_snapshots_recorded(self):
        result = het_system(UGPUPolicy()).run()
        for epoch in result.epochs:
            allocations = epoch.detail["allocations"]
            assert set(allocations) == {0, 1}
            assert sum(sms for sms, _ in allocations.values()) == 80
            assert sum(mcs for _, mcs in allocations.values()) == 32

    def test_trace_shows_the_repartition(self):
        # Snapshots are taken after the epoch-boundary decision, so epoch
        # 0 already records the first unbalanced split (the epoch itself
        # executed on the even partition), and the run ends unbalanced.
        result = het_system(UGPUPolicy()).run()
        first = result.epochs[0].detail["allocations"]
        last = result.epochs[-1].detail["allocations"]
        assert result.epochs[0].repartitioned
        assert first[0][1] > 16          # PVC granted channels at epoch 0
        assert last[0][1] > 16           # and still holds them at the end

    def test_static_policy_trace_is_constant(self):
        result = het_system(BPPolicy()).run()
        traces = {tuple(sorted(e.detail["allocations"].items()))
                  for e in result.epochs}
        assert len(traces) == 1
