"""Unit tests for the page-table walker, channel-status register and
GPU driver (repro.vm.ptw / channel_registry / driver)."""

import pytest

from repro.errors import AllocationError, ConfigError
from repro.vm import (
    ChannelStatusRegister,
    FaultKind,
    GPUDriver,
    PageTable,
    PageTableWalker,
    ReallocationDirection,
)
from repro.vm.driver import DRIVER_FAULT_CYCLES


class TestPageTableWalker:
    def test_walk_hit_latency_is_four_levels(self):
        table = PageTable(0)
        table.map(5, 50, channel=0)
        ptw = PageTableWalker(level_latency=120)
        result = ptw.walk(table, 5, now=0)
        assert not result.faulted
        assert result.latency == 4 * 120

    def test_walk_miss_is_fault(self):
        table = PageTable(0)
        ptw = PageTableWalker()
        result = ptw.walk(table, 7, now=0)
        assert result.faulted
        assert ptw.faults == 1

    def test_thread_limit_queues_walks(self):
        table = PageTable(0)
        table.map(1, 10, channel=0)
        ptw = PageTableWalker(max_threads=2, level_latency=10)
        r1 = ptw.walk(table, 1, now=0)
        r2 = ptw.walk(table, 1, now=0)
        r3 = ptw.walk(table, 1, now=0)  # must wait for a free thread
        assert r1.completed_at == 40
        assert r2.completed_at == 40
        assert r3.issued_at == 0
        assert r3.completed_at == 80  # started when a thread freed at 40

    def test_threads_retire(self):
        table = PageTable(0)
        table.map(1, 10, channel=0)
        ptw = PageTableWalker(max_threads=2, level_latency=10)
        ptw.walk(table, 1, now=0)
        assert ptw.in_flight == 1
        ptw.walk(table, 1, now=1000)
        assert ptw.in_flight == 1  # the first walk retired

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            PageTableWalker(max_threads=0)
        with pytest.raises(ConfigError):
            PageTableWalker(level_latency=0)

    def test_mean_latency(self):
        table = PageTable(0)
        table.map(1, 10, channel=0)
        ptw = PageTableWalker(level_latency=10)
        ptw.walk(table, 1, now=0)
        assert ptw.mean_latency == 40


class TestChannelStatusRegister:
    def test_lost_direction_marks_kept_channels(self):
        reg = ChannelStatusRegister()
        reg.set_lost(0, still_owned=[0, 1, 2, 3])
        assert reg.direction(0) is ReallocationDirection.LOST
        assert not reg.needs_migration(0, 2)   # still owned
        assert reg.needs_migration(0, 5)       # taken away

    def test_gained_direction_marks_new_channels(self):
        reg = ChannelStatusRegister()
        reg.set_gained(1, newly_granted=[6, 7])
        assert reg.direction(1) is ReallocationDirection.GAINED
        assert reg.needs_migration(1, 0)       # old channel -> spread out
        assert not reg.needs_migration(1, 6)   # already in a new channel

    def test_untracked_app_never_migrates(self):
        reg = ChannelStatusRegister()
        assert not reg.needs_migration(2, 0)
        assert reg.direction(2) is None

    def test_clear(self):
        reg = ChannelStatusRegister()
        reg.set_lost(0, [0])
        reg.clear(0)
        assert not reg.is_tracking(0)

    def test_capacity_limits(self):
        reg = ChannelStatusRegister()
        with pytest.raises(ConfigError):
            reg.set_lost(4, [0])        # only 2 app-id bits
        with pytest.raises(ConfigError):
            reg.set_lost(0, [8])        # only 8 channel bits

    def test_encoding(self):
        reg = ChannelStatusRegister()
        reg.set_gained(2, [0, 7])
        bits = reg.encoded_bits(2)
        assert bits == (2 << 9) | (1 << 8) | 0b10000001
        assert reg.encoded_bits(3) == 0


class TestGPUDriver:
    def make_driver(self):
        return GPUDriver(num_channel_groups=8, pages_per_channel=16)

    def test_register_app(self):
        driver = self.make_driver()
        table = driver.register_app(0, channels=[0, 1, 2, 3])
        assert driver.assigned_channels(0) == {0, 1, 2, 3}
        assert len(table) == 0

    def test_double_register_rejected(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        with pytest.raises(AllocationError):
            driver.register_app(0, [1])

    def test_empty_channel_set_rejected(self):
        driver = self.make_driver()
        with pytest.raises(AllocationError):
            driver.register_app(0, [])

    def test_allocation_prefers_least_loaded_channel(self):
        driver = self.make_driver()
        driver.register_app(0, [3, 1, 2])
        channels = [driver.channel_of_frame(driver.allocate_page(0))
                    for _ in range(4)]
        # Ties between equally loaded channels go to the lowest.
        assert channels == [1, 2, 3, 1]

    def test_allocation_outside_assignment_rejected(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        with pytest.raises(AllocationError):
            driver.allocate_page(0, channel=5)

    def test_exhaustion(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        for _ in range(16):
            driver.allocate_page(0)
        with pytest.raises(AllocationError):
            driver.allocate_page(0)

    def test_release_returns_frame(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        rpn = driver.allocate_page(0)
        assert driver.free_pages(0) == 15
        driver.release_page(0, rpn)
        assert driver.free_pages(0) == 16
        assert driver.resident_pages(0) == 0

    def test_release_without_residency_rejected(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        with pytest.raises(AllocationError):
            driver.release_page(0, 5)

    def test_release_of_unheld_frame_rejected(self):
        """Another app's frame and a frame already released are refused,
        with nothing changed, though app 0 holds a frame in channel 0."""
        driver = self.make_driver()
        driver.register_app(0, [0])
        driver.register_app(1, [0])
        released, kept = driver.allocate_page(0), driver.allocate_page(0)
        theirs = driver.allocate_page(1)
        driver.release_page(0, released)
        for rpn in (theirs, released):
            with pytest.raises(AllocationError,
                               match=rf"^app 0 does not hold frame {rpn}$"):
                driver.release_page(0, rpn)
        assert driver.free_pages(0) == 14
        assert driver.resident_pages(0) == driver.resident_pages(1) == 1
        assert driver.allocate_page(0) == released
        assert driver.allocate_page(0) not in (released, kept, theirs)

    def test_demand_fault_maps_page(self):
        driver = self.make_driver()
        driver.register_app(0, [0, 1])
        fault = driver.handle_fault(FaultKind.DEMAND, 0, vpn=42)
        assert fault.software_cycles == DRIVER_FAULT_CYCLES
        entry = driver.page_tables[0].lookup(42)
        assert entry.rpn == fault.rpn
        assert entry.channel == fault.channel

    def test_lost_channel_fault_moves_page(self):
        driver = self.make_driver()
        driver.register_app(0, [0, 1])
        driver.handle_fault(FaultKind.DEMAND, 0, vpn=1, target_channel=1)
        driver.reassign_channels(0, [0])  # channel 1 taken away
        fault = driver.handle_fault(FaultKind.LOST_CHANNEL, 0, vpn=1)
        assert fault.source_channel == 1
        assert fault.channel == 0
        assert driver.page_tables[0].lookup(1).channel == 0
        # The old frame went back to channel 1's free list.
        assert driver.free_pages(1) == 16

    def test_lost_channel_fault_requires_mapping(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        with pytest.raises(AllocationError):
            driver.handle_fault(FaultKind.LOST_CHANNEL, 0, vpn=9)

    def test_rebalance_fault_targets_new_channel(self):
        driver = self.make_driver()
        driver.register_app(0, [0])
        driver.handle_fault(FaultKind.DEMAND, 0, vpn=1)
        driver.reassign_channels(0, [0, 1])
        fault = driver.handle_fault(FaultKind.REBALANCE, 0, vpn=1, target_channel=1)
        assert fault.source_channel == 0
        assert fault.channel == 1

    def test_demand_fault_on_mapped_vpn_rejected(self):
        driver = GPUDriver(num_channel_groups=2, pages_per_channel=4)
        driver.register_app(0, [0, 1])
        first = driver.handle_fault(FaultKind.DEMAND, 0, vpn=5)
        with pytest.raises(AllocationError, match=r"app 0: .*vpn 0x5"):
            driver.handle_fault(FaultKind.DEMAND, 0, vpn=5)
        # Nothing changed: one page resident, 7 of 8 frames free, the
        # mapping still points at the first frame.
        assert driver.resident_pages(0) == 1
        assert driver.free_pages(0) + driver.free_pages(1) == 7
        assert driver.page_tables[0].lookup(5).rpn == first.rpn
        assert driver.faults == 1

    def test_demand_fault_on_invalidated_vpn_releases_frame(self):
        driver = GPUDriver(num_channel_groups=2, pages_per_channel=4)
        driver.register_app(0, [0, 1])
        driver.handle_fault(FaultKind.DEMAND, 0, vpn=5, target_channel=1)
        driver.page_tables[0].invalidate(5)
        fault = driver.handle_fault(FaultKind.DEMAND, 0, vpn=5)
        assert driver.resident_pages(0) == 1
        assert driver.free_pages(0) + driver.free_pages(1) == 7
        entry = driver.page_tables[0].lookup(5)
        assert entry.valid and entry.rpn == fault.rpn
        assert fault.source_channel is None
        assert list(driver.page_tables[0].pages_in_channel(fault.channel)) == [
            (5, entry)
        ]

    def test_migrate_pages_refuses_demand_faults(self):
        driver = self.make_driver()
        driver.register_app(0, [0, 1])
        driver.handle_fault(FaultKind.DEMAND, 0, vpn=1, target_channel=0)
        with pytest.raises(AllocationError, match="migration faults"):
            driver.migrate_pages(FaultKind.DEMAND, 0, [(1, 1)])
        assert driver.page_tables[0].lookup(1).channel == 0
        assert driver.faults == 1

    def test_faults_counted(self):
        driver = self.make_driver()
        driver.register_app(0, [0, 1])
        for vpn in range(3):
            driver.handle_fault(FaultKind.DEMAND, 0, vpn)
        driver.handle_fault(FaultKind.REBALANCE, 0, 0, target_channel=1)
        assert driver.faults == 4

    def test_is_balanced(self):
        driver = self.make_driver()
        driver.register_app(0, [0, 1])
        assert driver.is_balanced(0)
        for _ in range(4):
            driver.allocate_page(0, channel=0)
        assert not driver.is_balanced(0)

    def test_channel_of_frame_bounds(self):
        driver = self.make_driver()
        with pytest.raises(AllocationError):
            driver.channel_of_frame(16 * 8)


class TestNeedsMigrationSemantics:
    """``needs_migration`` is one membership test for both directions:
    the *meaning* of the marks differs (LOST marks the kept channels,
    GAINED marks the newly-granted ones), but in either case a channel
    outside the marked set is the one whose translations must trigger a
    migration fault."""

    def test_single_check_covers_both_directions(self):
        reg = ChannelStatusRegister()
        reg.set_lost(0, still_owned=[0, 1])
        reg.set_gained(1, newly_granted=[6, 7])
        for channel in range(8):
            assert reg.needs_migration(0, channel) == (channel not in {0, 1})
            assert reg.needs_migration(1, channel) == (channel not in {6, 7})

    def test_untracked_after_clear(self):
        reg = ChannelStatusRegister()
        reg.set_lost(0, still_owned=[3])
        reg.clear(0)
        assert not reg.needs_migration(0, 0)
        assert not reg.needs_migration(0, 3)
