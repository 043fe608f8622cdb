"""Stateful property-based testing of the GPU driver's frame accounting
and the page table's per-channel index (hypothesis RuleBasedStateMachine),
on both frame layouts: the default contiguous one and the paper's
Figure 8 interleave."""

import copy
from collections import Counter

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import AllocationError, ReproError
from repro.pagemove import InterleavedPageMapping, PageMoveAddressMapping
from repro.vm import FaultKind, GPUDriver
from tests.strategies import STATE_MACHINE_SETTINGS

PAGES_PER_CHANNEL = 12
CHANNELS = 8


class DriverMachine(RuleBasedStateMachine):
    """Random interleavings of register / fault / reassign / release /
    invalidate must never corrupt the driver's frame bookkeeping or the
    page table's per-channel index."""

    def __init__(self):
        super().__init__()
        self.driver = None
        self.mapped = {}          # app_id -> {vpn: rpn}, valid or not
        self.apps = set()
        self.next_vpn = 0
        self.handed_out = set()   # every frame a fault has returned

    @initialize(layout=st.sampled_from(["interleaved", "contiguous"]))
    def build(self, layout):
        mapping = None
        if layout == "interleaved":
            mapping = InterleavedPageMapping(PageMoveAddressMapping())
        self.driver = GPUDriver(pages_per_channel=PAGES_PER_CHANNEL,
                                mapping=mapping)

    def _state(self, driver=None):
        """Everything a refused fault must leave untouched."""
        driver = driver or self.driver
        return (
            [driver.free_pages(c) for c in range(CHANNELS)],
            {a: [driver.resident_pages(a, c) for c in range(CHANNELS)]
             for a in self.apps},
            {a: [(vpn, e.rpn, e.channel, e.valid)
                 for vpn, e in driver.page_tables[a].entries()]
             for a in self.apps},
            driver.faults,
        )

    def _unheld(self):
        """(app, frame) pairs where a fault handed the frame out but the
        app does not hold it now: another app does, or nobody."""
        holder = {rpn: a for a in self.apps for rpn in self.mapped[a].values()}
        return [(a, rpn) for a in sorted(self.apps)
                for rpn in sorted(self.handed_out) if holder.get(rpn) != a]

    def _draw_mapped(self, data):
        candidates = [a for a in sorted(self.apps) if self.mapped[a]]
        app_id = data.draw(st.sampled_from(candidates))
        vpn = data.draw(st.sampled_from(sorted(self.mapped[app_id])))
        return app_id, vpn

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(app_id=st.integers(min_value=0, max_value=3),
          channels=st.sets(st.integers(min_value=0, max_value=7),
                           min_size=1, max_size=8))
    def register(self, app_id, channels):
        if app_id in self.apps:
            with pytest.raises(AllocationError):
                self.driver.register_app(app_id, channels)
            return
        self.driver.register_app(app_id, channels)
        self.apps.add(app_id)
        self.mapped[app_id] = {}

    @precondition(lambda self: self.apps)
    @rule(data=st.data())
    def demand_fault(self, data):
        app_id = data.draw(st.sampled_from(sorted(self.apps)))
        vpn = self.next_vpn
        self.next_vpn += 1
        try:
            fault = self.driver.handle_fault(FaultKind.DEMAND, app_id, vpn)
        except AllocationError:
            # Out of frames in every assigned channel: legal terminal state
            # for that app; nothing must have changed.
            return
        self.mapped[app_id][vpn] = fault.rpn
        self.handed_out.add(fault.rpn)
        assert self.driver.channel_of_frame(fault.rpn) == fault.channel
        assert fault.channel in self.driver.assigned_channels(app_id)

    @precondition(lambda self: any(self.mapped.get(a) for a in self.apps))
    @rule(data=st.data())
    def refault(self, data):
        """DEMAND on a mapped VPN: refused with no change while the entry
        is valid; an invalidated entry's frame is released and replaced."""
        app_id, vpn = self._draw_mapped(data)
        valid = self.driver.page_tables[app_id].lookup(vpn).valid
        before = self._state()
        try:
            fault = self.driver.handle_fault(FaultKind.DEMAND, app_id, vpn)
        except AllocationError:
            assert self._state() == before
            return
        assert not valid, f"demand fault re-mapped valid vpn {vpn}"
        self.mapped[app_id][vpn] = fault.rpn
        self.handed_out.add(fault.rpn)

    @precondition(lambda self: any(self.mapped.get(a) for a in self.apps))
    @rule(data=st.data(),
          kind=st.sampled_from([FaultKind.LOST_CHANNEL, FaultKind.REBALANCE]),
          channel=st.integers(min_value=0, max_value=CHANNELS - 1))
    def migration_fault(self, data, kind, channel):
        app_id, vpn = self._draw_mapped(data)
        source = self.driver.page_tables[app_id].lookup(vpn).channel
        before = self._state()
        try:
            fault = self.driver.handle_fault(kind, app_id, vpn,
                                             target_channel=channel)
        except AllocationError:
            # Target not assigned to the app, or out of frames.
            assert self._state() == before
            return
        assert fault.channel == channel
        assert fault.source_channel == source
        self.mapped[app_id][vpn] = fault.rpn
        self.handed_out.add(fault.rpn)

    @precondition(lambda self: any(self.mapped.get(a) for a in self.apps))
    @rule(data=st.data(),
          kind=st.sampled_from([FaultKind.LOST_CHANNEL, FaultKind.REBALANCE]))
    def migrate_batch(self, data, kind):
        """``migrate_pages`` against one ``handle_fault`` per move on a
        copy of the driver: the same state, the same frames, and the same
        refusal (type, text) after the same number of moves.  Targets
        range over unassigned, full and out-of-range channels and None
        (the least-loaded channel), so refusals are drawn too."""
        app_id = data.draw(st.sampled_from(
            [a for a in sorted(self.apps) if self.mapped[a]]))
        vpns = data.draw(st.lists(st.sampled_from(sorted(self.mapped[app_id])),
                                  min_size=1, max_size=6, unique=True))
        targets = st.one_of(st.none(),
                            st.integers(min_value=-1, max_value=CHANNELS))
        moves = [(vpn, data.draw(targets)) for vpn in vpns]

        reference = copy.deepcopy(self.driver)
        table = reference.page_tables[app_id]
        expected_frames, expected_error = [], None
        for vpn, target in moves:
            old = table.lookup(vpn).rpn
            try:
                fault = reference.handle_fault(kind, app_id, vpn,
                                               target_channel=target)
            except ReproError as exc:
                expected_error = (type(exc), str(exc), len(expected_frames))
                break
            # The old frame is released before the new one is taken, so a
            # move into the old frame's own channel gets that frame back.
            if fault.channel == reference.channel_of_frame(old):
                assert fault.rpn == old
            expected_frames.append(fault.rpn)

        before = self.driver.faults
        error = None
        try:
            self.driver.migrate_pages(kind, app_id, iter(moves))
        except ReproError as exc:
            error = exc
        applied = self.driver.faults - before
        table = self.driver.page_tables[app_id]
        frames = [table.lookup(vpn).rpn for vpn, _ in moves[:applied]]
        assert frames == expected_frames
        assert expected_error == (
            None if error is None else (type(error), str(error), applied))
        assert self._state() == self._state(reference)
        for (vpn, _), rpn in zip(moves, frames):
            self.mapped[app_id][vpn] = rpn
            self.handed_out.add(rpn)

    @precondition(lambda self: any(self.mapped.get(a) for a in self.apps))
    @rule(data=st.data())
    def invalidate(self, data):
        app_id, vpn = self._draw_mapped(data)
        entry = self.driver.page_tables[app_id].invalidate(vpn)
        assert not entry.valid

    @precondition(lambda self: any(self.mapped.get(a) for a in self.apps))
    @rule(data=st.data())
    def release(self, data):
        app_id, vpn = self._draw_mapped(data)
        rpn = self.mapped[app_id].pop(vpn)
        self.driver.release_page(app_id, rpn)
        self.driver.page_tables[app_id].unmap(vpn)

    @precondition(lambda self: self._unheld())
    @rule(data=st.data())
    def release_unheld(self, data):
        """Releasing a frame the app does not hold, another app's or one
        already released, is refused with nothing changed."""
        app_id, rpn = data.draw(st.sampled_from(self._unheld()))
        before = self._state()
        with pytest.raises(AllocationError):
            self.driver.release_page(app_id, rpn)
        assert self._state() == before

    @precondition(lambda self: self.apps)
    @rule(data=st.data(),
          channels=st.sets(st.integers(min_value=0, max_value=7),
                           min_size=1, max_size=8))
    def reassign(self, data, channels):
        app_id = data.draw(st.sampled_from(sorted(self.apps)))
        self.driver.reassign_channels(app_id, channels)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def frames_conserved(self):
        """free + resident == capacity, per channel."""
        for channel in range(CHANNELS):
            resident = sum(
                self.driver.resident_pages(app_id, channel)
                for app_id in self.apps
            )
            free = self.driver.free_pages(channel)
            assert free + resident == PAGES_PER_CHANNEL, (
                f"channel {channel}: {free} free + {resident} resident"
            )

    @invariant()
    def no_frame_double_allocated(self):
        seen = set()
        for app_id in self.apps:
            for rpn in self.mapped[app_id].values():
                assert rpn not in seen, f"frame {rpn} owned twice"
                seen.add(rpn)

    @invariant()
    def page_tables_match_shadow(self):
        for app_id in self.apps:
            table = self.driver.page_tables[app_id]
            assert len(table) == len(self.mapped[app_id])
            for vpn, rpn in self.mapped[app_id].items():
                entry = table.lookup(vpn)
                assert entry is not None and entry.rpn == rpn

    @invariant()
    def residency_matches_tables(self):
        """Every resident frame is mapped by exactly one entry, valid or
        not, in the channel its frame number belongs to."""
        for app_id in self.apps:
            homes = Counter()
            for _, entry in self.driver.page_tables[app_id].entries():
                assert self.driver.channel_of_frame(entry.rpn) == entry.channel
                homes[entry.channel] += 1
            for channel in range(CHANNELS):
                assert self.driver.resident_pages(app_id, channel) == \
                    homes[channel], f"app {app_id} channel {channel}"

    @invariant()
    def channel_index_matches_entries(self):
        """The per-channel index is exactly a filter over entries()."""
        for app_id in self.apps:
            table = self.driver.page_tables[app_id]
            valid = [(vpn, e) for vpn, e in table.entries() if e.valid]
            for channel in range(CHANNELS):
                indexed = [(vpn, id(e)) for vpn, e in table.pages_in_channel(channel)]
                assert indexed == [
                    (vpn, id(e)) for vpn, e in valid if e.channel == channel
                ], f"app {app_id} channel {channel}"
            counts = table.channel_page_counts()
            assert counts == dict(Counter(e.channel for _, e in valid))
            assert list(counts) == sorted(counts)


DriverMachine.TestCase.settings = STATE_MACHINE_SETTINGS
TestDriverStateMachine = DriverMachine.TestCase
