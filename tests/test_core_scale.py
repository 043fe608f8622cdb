"""Scale and long-run consistency tests for the system simulations."""

import pytest

from repro import (
    BPPolicy,
    MigrationMode,
    MultitaskSystem,
    UGPUPolicy,
    build_mix,
)
from repro.workloads import eight_program_mixes, four_program_mixes


class TestBudgetConservation:
    def assert_partition_valid(self, system):
        total_sms = sum(s.allocation.sms for s in system.apps.values())
        total_mcs = sum(s.allocation.channels for s in system.apps.values())
        assert total_sms == system.config.num_sms
        assert total_mcs == system.config.num_channels
        for state in system.apps.values():
            assert state.allocation.sms >= system.partition.min_sms
            assert state.allocation.channels >= system.partition.min_channels
            assert state.allocation.channels % 4 == 0

    def test_two_program_partition_stays_valid(self):
        system = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=UGPUPolicy()
        )
        system.run(50_000_000)  # 10 epochs
        self.assert_partition_valid(system)

    def test_four_program_partition_stays_valid(self):
        mix = four_program_mixes(count=1)[0]
        system = MultitaskSystem(
            build_mix(mix.abbrs).applications, policy=UGPUPolicy()
        )
        system.run(50_000_000)
        self.assert_partition_valid(system)

    def test_eight_program_partition_stays_valid(self):
        mix = eight_program_mixes(count=1)[0]
        system = MultitaskSystem(
            build_mix(mix.abbrs).applications, policy=UGPUPolicy()
        )
        result = system.run(50_000_000)
        self.assert_partition_valid(system)
        assert len(result.runs) == 8
        assert all(r.ipc > 0 for r in result.runs)

    def test_partition_valid_under_every_migration_mode(self):
        for mode in MigrationMode:
            system = MultitaskSystem(
                build_mix(["PVC", "DXTC"]).applications,
                policy=UGPUPolicy(mode=mode),
            )
            system.run(25_000_000)
            self.assert_partition_valid(system)


class TestLongHorizon:
    def test_long_run_is_stable(self):
        """A 40-epoch run neither drifts nor accumulates phantom
        penalties: late epochs retire at least as much as mid epochs."""
        system = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=UGPUPolicy()
        )
        result = system.run(200_000_000)
        mid = sum(sum(e.instructions.values()) for e in result.epochs[10:20])
        late = sum(sum(e.instructions.values()) for e in result.epochs[30:40])
        assert late >= 0.95 * mid

    def test_ipc_scale_invariance(self):
        """Doubling the horizon leaves steady-state IPC unchanged."""
        short = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=UGPUPolicy()
        ).run(25_000_000)
        long = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=UGPUPolicy()
        ).run(50_000_000)
        for s, l in zip(short.runs, long.runs):
            assert l.ipc == pytest.approx(s.ipc, rel=0.10)

    def test_deterministic_replay(self):
        """Two identical simulations produce identical results."""
        a = MultitaskSystem(
            build_mix(["BH", "CP"]).applications, policy=UGPUPolicy()
        ).run(25_000_000)
        b = MultitaskSystem(
            build_mix(["BH", "CP"]).applications, policy=UGPUPolicy()
        ).run(25_000_000)
        assert a.stp == b.stp
        assert a.antt == b.antt
        assert [r.ipc for r in a.runs] == [r.ipc for r in b.runs]

    def test_bp_reference_is_horizon_invariant(self):
        a = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=BPPolicy()
        ).run(25_000_000)
        b = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications, policy=BPPolicy()
        ).run(100_000_000)
        assert b.stp == pytest.approx(a.stp, rel=0.05)
