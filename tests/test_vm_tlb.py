"""Unit tests for the TLB model (repro.vm.tlb)."""

import copy

import pytest

from repro.errors import ConfigError
from repro.vm import TLB


class TestGeometry:
    def test_l1_factory_matches_table1(self):
        tlb = TLB.l1()
        assert tlb.entries == 64
        assert tlb.sets == 1          # fully associative
        assert tlb.ways == 64

    def test_l2_factory_matches_table1(self):
        tlb = TLB.l2()
        assert tlb.entries == 512
        assert tlb.ways == 16

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            TLB(entries=0)
        with pytest.raises(ConfigError):
            TLB(entries=10, sets=3)
        with pytest.raises(ConfigError):
            TLB(entries=16, sets=2, ways=4)


class TestHitMiss:
    def test_miss_then_hit(self):
        tlb = TLB.l1()
        assert tlb.lookup(0, 5) is None
        tlb.fill(0, 5, rpn=50, channel=2)
        entry = tlb.lookup(0, 5)
        assert entry.rpn == 50
        assert entry.channel == 2
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.hit_rate == 0.5

    def test_apps_do_not_alias(self):
        tlb = TLB.l1()
        tlb.fill(0, 5, rpn=50, channel=0)
        assert tlb.lookup(1, 5) is None

    def test_peek_does_not_disturb_stats(self):
        tlb = TLB.l1()
        tlb.fill(0, 5, rpn=50, channel=0)
        assert tlb.peek(0, 5) is not None
        assert tlb.stats.accesses == 0


class TestLRUReplacement:
    def test_lru_victim_selected(self):
        tlb = TLB(entries=4, sets=1)
        for vpn in range(4):
            tlb.fill(0, vpn, rpn=vpn, channel=0)
        tlb.lookup(0, 0)  # make vpn 0 most recent
        victim = tlb.fill(0, 99, rpn=99, channel=0)
        assert victim.vpn == 1  # vpn 1 is now least recent
        assert tlb.lookup(0, 0) is not None
        assert tlb.lookup(0, 1) is None

    def test_refill_of_present_key_does_not_evict(self):
        tlb = TLB(entries=2, sets=1)
        tlb.fill(0, 1, rpn=1, channel=0)
        tlb.fill(0, 2, rpn=2, channel=0)
        victim = tlb.fill(0, 1, rpn=10, channel=1)
        assert victim is None
        assert tlb.lookup(0, 1).rpn == 10
        assert tlb.occupancy() == 2

    def test_eviction_counted(self):
        tlb = TLB(entries=1, sets=1)
        tlb.fill(0, 1, rpn=1, channel=0)
        tlb.fill(0, 2, rpn=2, channel=0)
        assert tlb.stats.evictions == 1


class TestInvalidation:
    def test_invalidate_single(self):
        tlb = TLB.l2()
        tlb.fill(0, 5, rpn=50, channel=0)
        assert tlb.invalidate(0, 5)
        assert not tlb.invalidate(0, 5)
        assert tlb.lookup(0, 5) is None

    def test_invalidate_pages_is_one_invalidate_per_page(self):
        """One scan drops what one invalidate() per page drops, keeps the
        other entries in LRU order and counts the same."""
        tlb = TLB(entries=32, sets=4)
        for vpn in range(12):
            tlb.fill(vpn % 2, vpn, rpn=vpn, channel=0)
        moved = {1, 2, 3, 6, 99}
        single = copy.deepcopy(tlb)
        dropped = sum(single.invalidate(0, vpn) for vpn in sorted(moved))
        assert tlb.invalidate_pages(0, moved) == dropped == 2
        assert [list(ways) for ways in tlb._sets] == \
            [list(ways) for ways in single._sets]
        assert tlb.stats == single.stats

    def test_flush_all(self):
        tlb = TLB.l1()
        for vpn in range(10):
            tlb.fill(0, vpn, rpn=vpn, channel=0)
        assert tlb.flush() == 10
        assert tlb.occupancy() == 0
        assert tlb.stats.flushes == 1

    def test_flush_single_app(self):
        tlb = TLB.l2()
        tlb.fill(0, 1, rpn=1, channel=0)
        tlb.fill(1, 2, rpn=2, channel=0)
        assert tlb.flush(app_id=0) == 1
        assert tlb.peek(1, 2) is not None

    def test_entries_in_channels(self):
        tlb = TLB.l2()
        tlb.fill(0, 1, rpn=1, channel=4)
        tlb.fill(0, 2, rpn=2, channel=5)
        tlb.fill(0, 3, rpn=3, channel=6)
        tlb.fill(1, 4, rpn=4, channel=4)
        found = tlb.entries_in_channels(0, {4, 5})
        assert sorted(e.vpn for e in found) == [1, 2]
