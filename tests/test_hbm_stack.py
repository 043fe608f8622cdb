"""Unit tests for HBM stack migration routing (repro.hbm.stack)."""

import pytest

from repro.errors import MigrationError
from repro.hbm import HBMConfig, HBMStack, activate, migration, read


@pytest.fixture
def config():
    return HBMConfig()


@pytest.fixture
def stack(config):
    return HBMStack(config, index=0, pagemove=True)


def mig_cmd(dest_channel=1, tsv=2, bank_group=0, bank=0, row=1, column=0):
    return migration(
        bank_group, bank, row, column,
        dest_channel=dest_channel, dest_bank_group=bank_group,
        dest_bank=bank, dest_row=row, dest_column=column, tsv_index=tsv,
    )


def open_rows_for_migration(stack, src=0, dst=1, bank_group=0, bank=0, row=1):
    """Activate the source and destination rows, return the ready cycle."""
    src_ch = stack.channel(src)
    dst_ch = stack.channel(dst)
    a = activate(bank_group, bank, row)
    ready1 = src_ch.issue(a, src_ch.earliest_issue(a, 0))
    ready2 = dst_ch.issue(a, dst_ch.earliest_issue(a, 0))
    return max(ready1, ready2)


class TestStackStructure:
    def test_has_eight_channels_and_tsvs(self, stack, config):
        assert len(stack.channels) == config.channels_per_stack == 8
        assert len(stack.tsvs) == 8
        assert all(t.bits == config.bus_bits for t in stack.tsvs)

    def test_pagemove_stack_has_wide_crossbars(self, stack):
        assert all(x.is_fully_connected for x in stack.crossbars)

    def test_stock_stack_has_narrow_crossbars(self, config):
        stock = HBMStack(config, pagemove=False)
        assert all(x.concurrent_capacity() == 1 for x in stock.crossbars)


class TestIdleTSVDetection:
    def test_all_tsvs_idle_initially(self, stack):
        assert stack.idle_tsv_bundles(now=1000) == list(range(8))

    def test_busy_channel_tsv_not_idle(self, stack):
        ch = stack.channel(3)
        a = activate(0, 0, 1)
        ready = ch.issue(a, ch.earliest_issue(a, 0))
        r = read(0, 0, 0)
        done = ch.issue(r, ch.earliest_issue(r, ready))
        idle = stack.idle_tsv_bundles(now=done + 10, window=100)
        assert 3 not in idle

    def test_find_idle_tsv_respects_exclusions(self, stack):
        assert stack.find_idle_tsv(now=1000, exclude=[0, 1]) == 2

    def test_find_idle_tsv_skips_busy_and_granted_bundles(self, stack):
        ch = stack.channel(0)
        a = activate(0, 0, 1)
        ready = ch.issue(a, ch.earliest_issue(a, 0))
        r = read(0, 0, 0)
        now = ch.issue(r, ch.earliest_issue(r, ready)) + 10
        stack.decoder.grant(1, 4, now, now + 500)
        # Channel 0's bus went quiet 10 cycles ago; bundle 1 is granted.
        assert stack.find_idle_tsv(now, exclude=[2], window=20) == 3
        assert stack.idle_tsv_bundles(now, window=20) == [2, 3, 4, 5, 6, 7]
        assert stack.find_idle_tsv(now, exclude=list(range(2, 8)),
                                   window=20) is None
        assert stack.find_idle_tsv(now, window=10) == 0


class TestMigrationRouting:
    def test_migration_completes_in_tmig(self, stack, config):
        ready = open_rows_for_migration(stack)
        done = stack.issue_migration(0, mig_cmd(), now=ready)
        assert done == ready + config.timing.tMIG
        assert stack.migrations_completed == 1

    def test_migration_grants_tsv_to_source_die(self, stack):
        ready = open_rows_for_migration(stack)
        stack.issue_migration(0, mig_cmd(tsv=2), now=ready)
        assert stack.decoder.driver_of(2, now=ready + 1) == 0

    def test_same_channel_migration_rejected(self, stack):
        ready = open_rows_for_migration(stack)
        with pytest.raises(MigrationError):
            stack.issue_migration(0, mig_cmd(dest_channel=0), now=ready)

    def test_cross_stack_destination_rejected(self, stack):
        ready = open_rows_for_migration(stack)
        with pytest.raises(MigrationError):
            stack.issue_migration(0, mig_cmd(dest_channel=9), now=ready)

    def test_missing_tsv_index_rejected(self, stack):
        ready = open_rows_for_migration(stack)
        cmd = migration(0, 0, 1, 0, dest_channel=1, dest_bank_group=0,
                        dest_bank=0, dest_row=1, dest_column=0, tsv_index=None)
        with pytest.raises(MigrationError):
            stack.issue_migration(0, cmd, now=ready)

    def test_stock_stack_rejects_migration(self, config):
        stock = HBMStack(config, pagemove=False)
        ready = open_rows_for_migration(stock)
        with pytest.raises(MigrationError):
            stock.issue_migration(0, mig_cmd(), now=ready)

    def test_non_migration_command_rejected(self, stack):
        with pytest.raises(MigrationError):
            stack.issue_migration(0, read(0, 0, 0), now=0)

    def test_parallel_migrations_from_four_bank_groups(self, stack, config):
        """The 4x8 crossbar lets all 4 bank groups migrate concurrently."""
        src_ch = stack.channel(0)
        dst_ch = stack.channel(1)
        for bg in range(4):
            a = activate(bg, 0, 1)
            src_ch.issue(a, src_ch.earliest_issue(a, 0))
            dst_ch.issue(a, dst_ch.earliest_issue(a, 0))
        ready = max(
            src_ch.earliest_issue(read(3, 0, 0), 0),
            dst_ch.earliest_issue(read(3, 0, 0), 0),
        ) + config.timing.tRCD
        dones = []
        for bg in range(4):
            cmd = migration(bg, 0, 1, 0, dest_channel=1, dest_bank_group=bg,
                            dest_bank=0, dest_row=1, dest_column=0,
                            tsv_index=2 + bg)
            dones.append(stack.issue_migration(0, cmd, now=ready + bg * 2))
        # With serialization the span would be >= 4*tMIG; with PPMM the four
        # copies overlap, finishing within tMIG plus command-bus skew.
        span = max(dones) - ready
        assert span < 2 * config.timing.tMIG

    def test_stats_aggregation(self, stack):
        ready = open_rows_for_migration(stack)
        stack.issue_migration(0, mig_cmd(), now=ready)
        stats = stack.stats()
        assert stats["migrations_completed"] == 1
        assert stats["migrations"] == 2  # source + destination channel views
        assert stats["activates"] == 2
