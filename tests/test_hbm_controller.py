"""Unit tests for the FR-FCFS memory controller (repro.hbm.controller)."""

import pytest

from repro.errors import ProtocolError
from repro.hbm import HBMConfig, MemoryController, MemoryRequest, RequestKind


@pytest.fixture
def config():
    return HBMConfig()


@pytest.fixture
def mc(config):
    return MemoryController(config)


def req(kind=RequestKind.READ, bg=0, bank=0, row=0, col=0, arrival=0):
    return MemoryRequest(kind=kind, bank_group=bg, bank=bank, row=row,
                         column=col, arrival=arrival)


class TestQueueing:
    def test_queue_capacity_enforced(self, mc, config):
        for i in range(config.queue_entries):
            mc.enqueue(req(col=i % 16))
        with pytest.raises(ProtocolError):
            mc.enqueue(req())

    def test_queue_free_slots(self, mc, config):
        mc.enqueue(req())
        assert mc.queue_free_slots == config.queue_entries - 1

    def test_service_empty_queue_rejected(self, mc):
        with pytest.raises(ProtocolError):
            mc.service_one()


class TestCoordinateValidation:
    @pytest.mark.parametrize("field, value", [
        ("bg", -1), ("bg", 4), ("bank", -1), ("bank", 9),
        ("row", -1), ("row", 16384), ("col", -1),
    ])
    def test_out_of_range_rejected_before_queueing(self, mc, field, value):
        bad = req(**{field: value})
        with pytest.raises(ProtocolError, match=r"MemoryRequest\("):
            mc.enqueue(bad)
        assert mc.queue == []

    def test_rejected_request_does_not_block_the_queue(self, mc):
        with pytest.raises(ProtocolError):
            mc.enqueue(req(bank=9))
        good = req(bank=1, row=3)
        mc.enqueue(good)
        assert mc.drain() == [good]
        assert good.completed_at is not None

    def test_negative_bank_group_not_served_on_last_group(self, mc):
        with pytest.raises(ProtocolError):
            mc.enqueue(req(bg=-1, row=7))
        assert mc.drain() == []
        assert all(bank.open_row is None
                   for group in mc.channel.groups for bank in group.banks)

    def test_write_buffer_rejects_before_buffering(self, config):
        mc = MemoryController(config, write_buffer_entries=8)
        with pytest.raises(ProtocolError):
            mc.enqueue(req(kind=RequestKind.WRITE, bg=4))
        assert mc.write_buffer == []

    def test_column_has_no_upper_bound(self, mc, config):
        # Columns past columns_per_row are accepted (and served).
        mc.enqueue(req(col=config.columns_per_row + 15))
        assert len(mc.drain()) == 1


class TestFRFCFS:
    def test_row_hit_served_before_older_miss(self, mc):
        # First request opens row 5.
        mc.enqueue(req(row=5, col=0, arrival=0))
        first = mc.service_one()
        assert first.row == 5
        # Now an older request to a different row vs a younger row hit.
        miss = req(row=9, col=0, arrival=1)
        hit = req(row=5, col=1, arrival=2)
        mc.enqueue(miss)
        mc.enqueue(hit)
        served = mc.service_one()
        assert served is hit  # FR: ready (row-hit) first

    def test_fcfs_among_misses(self, mc):
        older = req(row=3, col=0, arrival=1)
        younger = req(row=7, col=0, arrival=2)
        mc.enqueue(younger)
        mc.enqueue(older)
        assert mc.service_one() is older

    def test_row_hit_latency_shorter_than_miss(self, mc, config):
        t = config.timing
        mc.enqueue(req(row=5, col=0))
        miss = mc.service_one()
        mc.enqueue(req(row=5, col=1, arrival=miss.completed_at))
        hit = mc.service_one()
        assert hit.latency < miss.latency

    def test_row_conflict_costs_precharge(self, mc, config):
        mc.enqueue(req(row=5))
        first = mc.service_one()
        mc.enqueue(req(row=9, col=0, arrival=first.completed_at))
        conflict = mc.service_one()
        assert mc.stats.row_conflicts == 1
        t = config.timing
        assert conflict.latency >= t.tRP + t.tRCD + t.tCL

    def test_stats_counters(self, mc):
        mc.enqueue(req(row=1, col=0))
        mc.service_one()
        mc.enqueue(req(row=1, col=1, arrival=100))
        mc.service_one()
        assert mc.stats.served == 2
        assert mc.stats.row_hits == 1
        assert mc.stats.row_misses == 1
        assert mc.stats.row_hit_rate == 0.5


class TestDrainAndBandwidth:
    def test_drain_serves_everything(self, mc):
        for i in range(20):
            mc.enqueue(req(bg=i % 4, bank=(i // 4) % 4, row=0, col=i % 16,
                           arrival=i))
        done = mc.drain()
        assert len(done) == 20
        assert all(r.completed_at is not None for r in done)
        assert mc.queue == []

    def test_streaming_row_hits_approach_peak_bandwidth(self, mc, config):
        """Back-to-back row hits across bank groups should reach a large
        fraction of the channel's peak bandwidth."""
        n = 400
        for batch_start in range(0, n, 50):
            for i in range(batch_start, batch_start + 50):
                mc.enqueue(req(bg=i % 4, bank=0, row=0, col=i % 16, arrival=0))
            mc.drain()
        achieved = mc.achieved_bandwidth_gbps()
        # One column (128 B) per tCCDs=1 clock theoretical max; bursts share
        # the data bus (tBL=4), so the bound is 128 B / 4 clk * 440 MHz.
        bus_bound = config.column_bytes / config.timing.tBL * config.freq_mhz * 1e6 / 1e9
        assert achieved > 0.5 * bus_bound

    def test_bandwidth_zero_before_any_service(self, mc):
        assert mc.achieved_bandwidth_gbps() == 0.0

    def test_writes_served(self, mc):
        mc.enqueue(req(kind=RequestKind.WRITE, row=2, col=3))
        done = mc.service_one()
        assert done.completed_at is not None
        assert mc.channel.writes == 1


class TestRefresh:
    def test_refresh_disabled_by_default(self, config):
        mc = MemoryController(config)
        mc.enqueue(req(row=0))
        mc.service_one()
        assert mc.refreshes == 0

    def test_refresh_fires_every_trefi(self, config):
        mc = MemoryController(config, refresh_enabled=True)
        t = config.timing
        # A request arriving after several refresh intervals forces the
        # controller to catch up on the missed refreshes first.
        mc.enqueue(req(row=0, arrival=3 * t.tREFI + 10))
        mc.service_one()
        assert mc.refreshes == 3

    def test_refresh_closes_open_rows(self, config):
        mc = MemoryController(config, refresh_enabled=True)
        t = config.timing
        mc.enqueue(req(row=5, arrival=0))
        mc.service_one()
        assert mc.channel.open_row(0, 0) == 5
        mc.enqueue(req(row=5, col=1, arrival=t.tREFI + 1))
        mc.service_one()
        # The refresh precharged the bank, so the second access re-opened
        # the row (a row miss, not a hit).
        assert mc.stats.row_misses == 2

    def test_refresh_adds_latency(self, config):
        t = config.timing
        busy = MemoryController(config, refresh_enabled=True)
        quiet = MemoryController(config, refresh_enabled=False)
        for mc in (busy, quiet):
            mc.enqueue(req(row=0, arrival=t.tREFI + 1))
            mc.service_one()
        assert busy.now >= quiet.now + t.tRFC

    def test_trfc_must_fit_in_trefi(self):
        from repro.hbm import HBMTiming
        with pytest.raises(Exception):
            HBMTiming(tREFI=100, tRFC=100).validate()


class TestWriteBuffer:
    def make(self, config, entries=16):
        return MemoryController(config, write_buffer_entries=entries)

    def test_writes_park_in_buffer(self, config):
        mc = self.make(config)
        for i in range(4):
            mc.enqueue(req(kind=RequestKind.WRITE, row=0, col=i))
        assert len(mc.write_buffer) == 4
        assert mc.stats.served == 0  # nothing issued yet

    def test_high_watermark_triggers_burst(self, config):
        mc = self.make(config, entries=16)
        for i in range(12):  # 12 >= 0.75 * 16
            mc.enqueue(req(kind=RequestKind.WRITE, bg=i % 4, row=0, col=i % 16))
        assert mc.write_bursts >= 1
        assert len(mc.write_buffer) <= 4  # drained to the low watermark
        assert mc.stats.served >= 8

    def test_reads_bypass_the_buffer(self, config):
        mc = self.make(config)
        mc.enqueue(req(kind=RequestKind.WRITE, row=0, col=0))
        mc.enqueue(req(kind=RequestKind.READ, row=0, col=1))
        served = mc.service_one()
        assert served.kind is RequestKind.READ

    def test_drain_flushes_buffer(self, config):
        mc = self.make(config)
        for i in range(5):
            mc.enqueue(req(kind=RequestKind.WRITE, row=0, col=i))
        completed = mc.drain()
        assert len(completed) == 5
        assert not mc.write_buffer
        assert all(r.completed_at is not None for r in completed)

    def test_burst_amortizes_turnaround(self, config):
        """Interleaved read/write service pays tWTR repeatedly; buffered
        writes issue as one burst and finish sooner."""
        interleaved = MemoryController(config)
        for i in range(16):
            kind = RequestKind.WRITE if i % 2 else RequestKind.READ
            interleaved.enqueue(req(kind=kind, bg=0, row=0, col=i))
            interleaved.service_one()
        buffered = self.make(config, entries=32)
        for i in range(16):
            kind = RequestKind.WRITE if i % 2 else RequestKind.READ
            buffered.enqueue(req(kind=kind, bg=0, row=0, col=i))
        buffered.drain()
        assert buffered.now < interleaved.now

    def test_invalid_watermarks(self, config):
        with pytest.raises(ProtocolError):
            MemoryController(config, write_buffer_entries=8,
                             write_high_watermark=0.2,
                             write_low_watermark=0.5)
        with pytest.raises(ProtocolError):
            MemoryController(config, write_buffer_entries=-1)
