"""Unit tests for the DRAM bank FSM (repro.hbm.bank)."""

import pytest

from repro.errors import ProtocolError
from repro.hbm import HBMTiming
from repro.hbm.bank import Bank, BankState


@pytest.fixture
def timing():
    return HBMTiming()


@pytest.fixture
def bank(timing):
    return Bank(timing, rows=16384)


class TestActivate:
    def test_opens_row(self, bank):
        bank.do_activate(0, 7)
        assert bank.state is BankState.ACTIVE
        assert bank.open_row == 7
        assert bank.is_row_open(7)
        assert not bank.is_row_open(8)

    def test_double_activate_is_protocol_error(self, bank):
        bank.do_activate(0, 1)
        with pytest.raises(ProtocolError):
            bank.do_activate(100, 2)

    def test_row_out_of_range(self, bank):
        with pytest.raises(ProtocolError):
            bank.do_activate(0, 16384)

    def test_activate_before_trc_rejected(self, bank, timing):
        bank.do_activate(0, 1)
        bank.do_precharge(timing.tRAS)  # earliest legal precharge
        # next activate must wait for max(tRC, tRAS+tRP)
        earliest = bank.earliest_activate()
        assert earliest == max(timing.tRC, timing.tRAS + timing.tRP)
        with pytest.raises(ProtocolError):
            bank.do_activate(earliest - 1, 2)
        bank.do_activate(earliest, 2)

    def test_activation_counter(self, bank):
        bank.do_activate(0, 1)
        assert bank.activations == 1


class TestColumnCommands:
    def test_read_before_trcd_rejected(self, bank, timing):
        bank.do_activate(0, 1)
        with pytest.raises(ProtocolError):
            bank.do_read(timing.tRCD - 1, 0)

    def test_read_latency_is_cl_plus_burst(self, bank, timing):
        bank.do_activate(0, 1)
        done = bank.do_read(timing.tRCD, 3)
        assert done == timing.tRCD + timing.tCL + timing.tBL

    def test_write_latency_is_wl_plus_burst(self, bank, timing):
        bank.do_activate(0, 1)
        done = bank.do_write(timing.tRCD, 3)
        assert done == timing.tRCD + timing.tWL + timing.tBL

    def test_read_without_open_row_rejected(self, bank):
        with pytest.raises(ProtocolError):
            bank.do_read(100, 0)

    def test_negative_column_rejected(self, bank, timing):
        bank.do_activate(0, 1)
        with pytest.raises(ProtocolError):
            bank.do_read(timing.tRCD, -1)

    def test_tccd_spacing_enforced_via_note(self, bank, timing):
        bank.do_activate(0, 1)
        t0 = timing.tRCD
        bank.do_read(t0, 0)
        bank.note_column_issued(t0, timing.tCCDl)
        with pytest.raises(ProtocolError):
            bank.do_read(t0 + timing.tCCDl - 1, 1)
        bank.do_read(t0 + timing.tCCDl, 1)


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, bank, timing):
        bank.do_activate(0, 1)
        with pytest.raises(ProtocolError):
            bank.do_precharge(timing.tRAS - 1)

    def test_precharge_closes_row(self, bank, timing):
        bank.do_activate(0, 1)
        bank.do_precharge(timing.tRAS)
        assert bank.state is BankState.IDLE
        assert bank.open_row is None

    def test_read_to_precharge_respects_trtp(self, bank, timing):
        bank.do_activate(0, 1)
        read_at = timing.tRAS  # late read pushes precharge past tRAS
        bank.do_read(read_at, 0)
        assert bank.earliest_precharge() >= read_at + timing.tRTP


class TestMigrationColumnCopy:
    def test_migration_read_needs_open_row(self, bank):
        with pytest.raises(ProtocolError):
            bank.do_migration_read(50, 0)

    def test_migration_latency_is_tmig(self, bank, timing):
        bank.do_activate(0, 1)
        done = bank.do_migration_read(timing.tRCD, 0)
        assert done == timing.tRCD + timing.tMIG

    def test_migration_write_latency_is_tmig(self, bank, timing):
        bank.do_activate(0, 5)
        done = bank.do_migration_write(timing.tRCD, 2)
        assert done == timing.tRCD + timing.tMIG

    def test_migration_halves_name_their_side(self, bank, timing):
        with pytest.raises(ProtocolError, match=r"MIGRATION\(dst\) to bank "
                                                "with no open row"):
            bank.do_migration_write(50, 0)
        bank.do_activate(0, 5)
        with pytest.raises(ProtocolError, match=r"MIGRATION\(src\) to row 6, "
                                                "but the open row is 5"):
            bank.do_migration_read(timing.tRCD, 0, row=6)

    def test_column_command_checks_the_named_row(self, bank, timing):
        bank.do_activate(0, 3)
        with pytest.raises(ProtocolError, match="READ to row 4, but the open "
                                                "row is 3"):
            bank.do_read(timing.tRCD, 0, row=4)
        with pytest.raises(ProtocolError, match="WRITE to row 4"):
            bank.do_write(timing.tRCD, 0, row=4)
        assert bank.row_hits == 0
        assert bank.do_read(timing.tRCD, 0, row=3) == \
            timing.tRCD + timing.tCL + timing.tBL


class TestTimingValidation:
    def test_default_timing_is_valid(self, timing):
        timing.validate()

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(Exception):
            HBMTiming(tRC=0).validate()

    def test_rejects_tras_trp_exceeding_trc(self):
        with pytest.raises(Exception):
            HBMTiming(tRAS=40, tRP=14, tRC=47).validate()

    def test_rejects_short_gt_long_constraints(self):
        with pytest.raises(Exception):
            HBMTiming(tRRDs=7, tRRDl=6).validate()
        with pytest.raises(Exception):
            HBMTiming(tCCDs=3, tCCDl=2).validate()
        with pytest.raises(Exception):
            HBMTiming(tWTRs=9, tWTRl=8).validate()
