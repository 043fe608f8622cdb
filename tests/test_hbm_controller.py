"""Unit tests for the FR-FCFS memory controller (repro.hbm.controller)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.hbm import (
    CommandKind, HBMConfig, MemoryController, MemoryRequest, RequestKind,
)
from tests.strategies import STANDARD_SETTINGS


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


def reference_pick(queue, now, channel):
    """FR-FCFS written out: the requests that have arrived (every request
    if none has), their row hits if any, then the earliest arrival, then
    the lowest queue position."""
    arrived = [i for i, r in enumerate(queue) if r.arrival <= now]
    candidates = arrived or range(len(queue))
    hits = [i for i in candidates
            if channel.open_row(queue[i].bank_group, queue[i].bank)
            == queue[i].row]
    return min(hits or candidates, key=lambda i: (queue[i].arrival, i))


#: Two banks per group and three rows, so queued requests often hit the
#: rows opened first, and a narrow arrival window, so arrivals often tie.
OPENED = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1),
                            st.integers(0, 2)),
                  max_size=8, unique_by=lambda t: t[:2])
QUEUED = st.lists(
    st.tuples(st.sampled_from(list(RequestKind)), st.integers(0, 3),
              st.integers(0, 1), st.integers(0, 2), st.integers(0, 15),
              st.integers(-10, 10)),   # arrival relative to the clock
    max_size=64)


@STANDARD_SETTINGS
@given(OPENED, QUEUED, st.integers(0, 200), st.booleans())
# A pending row hit against an older pending miss: the hit wins.
@example([(0, 0, 1)], [(RequestKind.READ, 0, 1, 2, 0, 5),
                       (RequestKind.READ, 0, 0, 1, 0, 9)], 100, True)
# Two pending row hits arriving together: the first queued wins.
@example([(0, 0, 1)], [(RequestKind.READ, 1, 1, 2, 0, 5),
                       (RequestKind.READ, 0, 0, 1, 0, 9),
                       (RequestKind.READ, 0, 0, 1, 1, 9)], 100, True)
def test_service_follows_reference_frfcfs(opened, queued, now, pending):
    """Every pick of a drain, pending requests and row hits on rows opened
    beforehand included, is the one the written-out rule makes.  With
    ``pending`` nothing has arrived when the drain starts."""
    mc = MemoryController(HBMConfig())
    for bank_group, bank, row in opened:
        mc.channel.issue_earliest(CommandKind.ACTIVATE, bank_group, bank,
                                  row, None, 0)
    mc.now = now
    for kind, bank_group, bank, row, column, offset in queued:
        if pending:
            offset = abs(offset) + 1
        mc.enqueue(MemoryRequest(kind=kind, bank_group=bank_group, bank=bank,
                                 row=row, column=column,
                                 arrival=max(0, now + offset)))
    while mc.queue:
        expected = mc.queue[reference_pick(mc.queue, mc.now, mc.channel)]
        assert mc.service_one() is expected


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
