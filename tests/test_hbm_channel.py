"""Unit tests for channel-level timing (repro.hbm.channel)."""

import pytest

from repro.errors import ProtocolError
from repro.hbm import Channel, HBMConfig, activate, migration, precharge, read, write


@pytest.fixture
def config():
    return HBMConfig()


@pytest.fixture
def channel(config):
    return Channel(config, index=0)


def open_row(channel, bank_group, bank, row, now=0):
    """Helper: activate a row and return the cycle the row is usable."""
    cmd = activate(bank_group, bank, row)
    at = channel.earliest_issue(cmd, now)
    return channel.issue(cmd, at), at


class TestActivateSpacing:
    def test_trrd_long_within_bank_group(self, channel, config):
        t = config.timing
        _, at0 = open_row(channel, 0, 0, 1)
        cmd = activate(0, 1, 2)
        earliest = channel.earliest_issue(cmd, at0)
        assert earliest == at0 + t.tRRDl

    def test_trrd_short_across_bank_groups(self, channel, config):
        t = config.timing
        _, at0 = open_row(channel, 0, 0, 1)
        cmd = activate(1, 0, 2)
        earliest = channel.earliest_issue(cmd, at0)
        assert earliest == at0 + t.tRRDs

    def test_tfaw_limits_fifth_activate(self, channel, config):
        t = config.timing
        first_at = None
        now = 0
        # Four activates to different bank groups/banks.
        for i in range(4):
            cmd = activate(i % 4, i // 4, 1)
            at = channel.earliest_issue(cmd, now)
            channel.issue(cmd, at)
            if first_at is None:
                first_at = at
            now = at
        fifth = activate(0, 1, 1)
        earliest = channel.earliest_issue(fifth, now)
        assert earliest >= first_at + t.tFAW

    def test_early_activate_rejected(self, channel):
        open_row(channel, 0, 0, 1)
        with pytest.raises(ProtocolError):
            channel.issue(activate(0, 1, 1), 1)


class TestColumnSpacing:
    def test_tccd_long_same_group(self, channel, config):
        t = config.timing
        ready, at = open_row(channel, 0, 0, 1)
        r1 = read(0, 0, 0)
        at1 = channel.earliest_issue(r1, ready)
        channel.issue(r1, at1)
        r2 = read(0, 0, 1)
        earliest = channel.earliest_issue(r2, at1)
        assert earliest >= at1 + t.tCCDl

    def test_write_to_read_turnaround(self, channel, config):
        t = config.timing
        ready, _ = open_row(channel, 0, 0, 1)
        w = write(0, 0, 0)
        at_w = channel.earliest_issue(w, ready)
        data_end = channel.issue(w, at_w)
        r = read(0, 0, 1)
        earliest = channel.earliest_issue(r, at_w)
        assert earliest >= data_end + t.tWTRl

    def test_read_counts_tracked(self, channel):
        ready, _ = open_row(channel, 0, 0, 1)
        r = read(0, 0, 0)
        channel.issue(r, channel.earliest_issue(r, ready))
        assert channel.reads == 1
        assert channel.stats()["reads"] == 1


class TestDataBus:
    def test_consecutive_reads_serialize_on_data_bus(self, channel, config):
        """Bursts from different bank groups still share the external bus."""
        t = config.timing
        ready0, _ = open_row(channel, 0, 0, 1)
        ready1, _ = open_row(channel, 1, 0, 1, now=ready0)
        start = max(ready0, ready1)
        r0 = read(0, 0, 0)
        at0 = channel.earliest_issue(r0, start)
        done0 = channel.issue(r0, at0)
        r1 = read(1, 0, 0)
        at1 = channel.earliest_issue(r1, at0)
        done1 = channel.issue(r1, at1)
        assert done1 >= done0 + t.tBL  # bursts cannot overlap

    def test_migration_leaves_external_bus_free(self, channel, config):
        """MIGRATION moves data via idle TSVs, not the channel data bus."""
        ready, _ = open_row(channel, 0, 0, 1)
        busy_before = channel.data_bus_busy_until
        mig = migration(0, 0, 1, 0, dest_channel=1, dest_bank_group=0,
                        dest_bank=0, dest_row=1, dest_column=0, tsv_index=3)
        at = channel.earliest_issue(mig, ready)
        channel.issue(mig, at)
        assert channel.data_bus_busy_until == busy_before
        assert channel.migrations == 1

    def test_migration_occupies_bank_group_bus(self, channel, config):
        ready, _ = open_row(channel, 0, 0, 1)
        mig = migration(0, 0, 1, 0, dest_channel=1, dest_bank_group=0,
                        dest_bank=0, dest_row=1, dest_column=0, tsv_index=3)
        at = channel.earliest_issue(mig, ready)
        done = channel.issue(mig, at)
        assert channel.groups[0].bus_free_at() == done


class TestCommandBus:
    def test_migration_occupies_command_bus_two_cycles(self, channel, config):
        ready, _ = open_row(channel, 0, 0, 1)
        mig = migration(0, 0, 1, 0, dest_channel=1, dest_bank_group=0,
                        dest_bank=0, dest_row=1, dest_column=0, tsv_index=3)
        at = channel.earliest_issue(mig, ready)
        channel.issue(mig, at)
        assert channel.command_bus_busy_until == at + 2

    def test_read_occupies_command_bus_one_cycle(self, channel):
        ready, _ = open_row(channel, 0, 0, 1)
        r = read(0, 0, 0)
        at = channel.earliest_issue(r, ready)
        channel.issue(r, at)
        assert channel.command_bus_busy_until == at + 1


class TestCoordinateChecks:
    @pytest.mark.parametrize("bank_group", [-1, 4])
    def test_bank_group_out_of_range_rejected(self, channel, bank_group):
        cmd = activate(bank_group, 0, 7)
        with pytest.raises(ProtocolError, match="bank group"):
            channel.earliest_issue(cmd, 0)
        with pytest.raises(ProtocolError, match="bank group"):
            channel.issue(cmd, 0)
        assert all(bank.open_row is None
                   for group in channel.groups for bank in group.banks)


class TestIdleDetection:
    def test_untouched_channel_is_idle(self, channel):
        assert channel.is_idle_at(now=200, window=100)

    def test_channel_busy_after_read(self, channel):
        ready, _ = open_row(channel, 0, 0, 1)
        r = read(0, 0, 0)
        at = channel.earliest_issue(r, ready)
        done = channel.issue(r, at)
        assert not channel.is_idle_at(done + 50, window=100)
        assert channel.is_idle_at(done + 100, window=100)
