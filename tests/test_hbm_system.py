"""Unit tests for the whole-memory-system facade (repro.hbm.system)."""

import random
from collections import Counter

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.hbm import (
    Channel, Command, HBMConfig, HBMSystem, HBMTiming, MemoryController,
    MemoryRequest, RequestKind, activate, migration,
)
from repro.pagemove import InterleavedPageMapping, PageMoveAddressMapping
from repro.pagemove.engine import MigrationEngine
from repro.vm import GPUDriver


@pytest.fixture
def system():
    return HBMSystem()


class TestStructure:
    def test_paper_configuration(self, system):
        assert len(system.stacks) == 4
        assert system.num_channels == 32
        assert len(system.controllers) == 32

    def test_channel_bandwidth_matches_table1(self, system):
        # 900 GB/s over 32 channels.
        assert system.config.channel_bandwidth_gbps == pytest.approx(900 / 32)
        assert system.peak_bandwidth_gbps(32) == pytest.approx(900)
        assert system.peak_bandwidth_gbps(16) == pytest.approx(450)

    def test_peak_bandwidth_bounds(self, system):
        with pytest.raises(ProtocolError):
            system.peak_bandwidth_gbps(33)
        with pytest.raises(ProtocolError):
            system.peak_bandwidth_gbps(-1)


class TestChannelIds:
    def test_split_roundtrip(self, system):
        for gid in range(32):
            stack, local = system.split_channel_id(gid)
            assert system.global_channel_id(stack, local) == gid

    def test_split_out_of_range(self, system):
        with pytest.raises(ProtocolError):
            system.split_channel_id(32)

    def test_global_id_bounds(self, system):
        with pytest.raises(ProtocolError):
            system.global_channel_id(4, 0)
        with pytest.raises(ProtocolError):
            system.global_channel_id(0, 8)

    def test_channel_lookup_is_consistent(self, system):
        ch = system.channel(13)  # stack 1, local channel 5
        assert ch is system.stacks[1].channels[5]
        assert system.controller(13).channel is ch


class TestConfigValidation:
    def test_default_config_valid(self):
        HBMConfig().validate()

    def test_non_power_of_two_channels_rejected(self):
        with pytest.raises(ConfigError):
            HBMConfig(channels_per_stack=6).validate()

    def test_zero_stacks_rejected(self):
        with pytest.raises(ConfigError):
            HBMConfig(num_stacks=0).validate()

    def test_row_not_multiple_of_column_rejected(self):
        with pytest.raises(ConfigError):
            HBMConfig(row_size_bytes=2000, column_bytes=128).validate()

    def test_clock_domain_conversion(self):
        cfg = HBMConfig()
        assert cfg.to_gpu_cycles(50) == pytest.approx(40)
        assert cfg.to_mem_cycles(40) == pytest.approx(50)
        assert cfg.migration_gpu_cycles_per_command() == pytest.approx(40)

    def test_columns_per_row(self):
        assert HBMConfig().columns_per_row == 16

    def test_banks_per_channel(self):
        assert HBMConfig().banks_per_channel == 16


def enqueue_traffic(controller, seed=3, count=48):
    rng = random.Random(seed)
    for _ in range(count):
        controller.enqueue(MemoryRequest(
            kind=RequestKind.WRITE if rng.random() < 0.3 else RequestKind.READ,
            bank_group=rng.randrange(4), bank=rng.randrange(4),
            row=rng.randrange(8), column=rng.randrange(16)))


def applied(channels):
    return sum(ch.activates + ch.precharges + ch.reads + ch.writes
               + ch.migrations for ch in channels)


class TestCommandPath:
    """The hot callers compute each command's ready cycle once and issue
    by coordinates."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for name in ("ready_cycle", "apply"):
            original = getattr(Channel, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Channel, name, spy)
        return counts

    def test_one_ready_computation_per_command_in_a_drain(self, counts):
        controller = MemoryController(HBMConfig())
        enqueue_traffic(controller)
        assert len(controller.drain()) == 48
        commands = applied([controller.channel])
        assert commands > 48
        assert counts["apply"] == counts["ready_cycle"] == commands

    def test_one_ready_computation_per_command_in_a_page_copy(self, counts):
        mapping = PageMoveAddressMapping()
        engine = MigrationEngine(
            GPUDriver(pages_per_channel=16,
                      mapping=InterleavedPageMapping(mapping)),
            mapping=mapping)
        system = HBMSystem()
        now = engine.execute_page_on_hardware(system, src_rpn=0, dst_channel=1)
        engine.execute_page_on_hardware(system, src_rpn=5, dst_channel=3,
                                        now=now)
        channels = [ch for stack in system.stacks for ch in stack.channels]
        # A MIGRATION counts once on each of its two channels.
        migrations = system.stats()["migrations_completed"]
        assert migrations == 2 * mapping.migrations_per_page
        assert sum(ch.migrations for ch in channels) == 2 * migrations
        commands = applied(channels)
        assert counts["apply"] == counts["ready_cycle"] == commands

    def test_no_command_objects_built(self, monkeypatch):
        system = HBMSystem()
        stack = system.stacks[0]
        for ch in (0, 1):
            stack.channel(ch).issue(activate(0, 0, 5), 0)
        cmd = migration(0, 0, 5, 0, dest_channel=1, dest_bank_group=0,
                        dest_bank=0, dest_row=5, dest_column=0, tsv_index=2)
        controller = MemoryController(HBMConfig())
        enqueue_traffic(controller)
        mapping = PageMoveAddressMapping()
        engine = MigrationEngine(
            GPUDriver(pages_per_channel=16,
                      mapping=InterleavedPageMapping(mapping)),
            mapping=mapping)
        copier = HBMSystem()

        def refuse(*args, **kwargs):
            raise AssertionError("Command built on the command path")

        monkeypatch.setattr(Command, "__init__", refuse)
        with pytest.raises(AssertionError, match="Command built"):
            activate(0, 0, 1)
        assert len(controller.drain()) == 48
        assert system.issue_migration(0, cmd, 0) == 14 + 50
        assert stack.channel(1).migrations == 1
        engine.execute_page_on_hardware(copier, src_rpn=0, dst_channel=1)
        assert (copier.stats()["migrations_completed"]
                == mapping.migrations_per_page)
