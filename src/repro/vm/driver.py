"""GPU driver model: physical page allocation and fault handling.

The driver (Figure 9, Section 4.4) owns the free physical frames of each
memory channel group, tracks how many pages each application has resident
in each channel, and services three fault flavours:

* ``DEMAND`` — classic first-touch fault: allocate a free page from the
  least-loaded channel currently assigned to the application.
* ``LOST_CHANNEL`` — PageMove fault raised when a translation lands in a
  channel that was reallocated away: allocate a page in a still-owned
  channel and migrate the data.
* ``REBALANCE`` — PageMove fault raised for an application that *gained*
  channels: move a page into the new channel to exploit its bandwidth.

Every fault charges the paper's 1000-cycle software processing delay
(Section 4.5, following Vesely et al.).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.errors import AllocationError
from repro.obs import OFF, Obs
from repro.vm.page_table import PageTable

#: Software fault-processing delay in GPU cycles (paper Section 4.5).
DRIVER_FAULT_CYCLES = 1000


class FaultKind(enum.Enum):
    """The three fault flavours the PageMove driver distinguishes."""

    DEMAND = "demand"
    LOST_CHANNEL = "lost_channel"
    REBALANCE = "rebalance"


@dataclass
class PageFault:
    """Record of one serviced fault."""

    kind: FaultKind
    app_id: int
    vpn: int
    rpn: int
    channel: int
    source_channel: Optional[int] = None  #: set when a migration was triggered
    software_cycles: int = DRIVER_FAULT_CYCLES


class GPUDriver:
    """Physical memory manager for co-executing applications.

    Parameters
    ----------
    num_channel_groups:
        Channel groups managed (8 in the paper's geometry: one channel per
        stack forms a group).
    pages_per_channel:
        Physical page frames available per channel group.
    """

    def __init__(self, num_channel_groups: int = 8,
                 pages_per_channel: int = 262_144, mapping=None,
                 obs: Obs = OFF) -> None:
        """``mapping``, when given, must provide ``channel_of_frame(rpn)``
        and ``frames_of_channel(channel)`` (e.g.
        :class:`repro.pagemove.address_mapping.InterleavedPageMapping`);
        it overrides the default contiguous frame layout with the paper's
        Figure 8 interleave.

        ``obs`` (a :class:`repro.obs.Obs` handle) gets one ``fault``
        event per serviced fault, named by kind (its metrics count
        faults by kind and accumulate software fault-handling cycles),
        and a ``vm.handle_fault`` host phase per fault, refused ones
        included."""
        if mapping is not None:
            num_channel_groups = mapping.num_channel_groups
            pages_per_channel = min(pages_per_channel, mapping.pages_per_channel)
        if num_channel_groups <= 0 or pages_per_channel <= 0:
            raise AllocationError("driver geometry must be positive")
        self.num_channel_groups = num_channel_groups
        self.pages_per_channel = pages_per_channel
        self.mapping = mapping
        #: Per channel group: released frames, handed out again last in,
        #: first out before any frame never handed out.
        self._released: List[List[int]] = [[] for _ in range(num_channel_groups)]
        #: Per channel group: the frames never handed out, lowest first
        #: (the contiguous layout gives channel c ``[c*N, (c+1)*N)``).
        self._unused: List[Iterator[int]] = [
            iter(range(c * pages_per_channel, (c + 1) * pages_per_channel))
            if mapping is None else iter(mapping.frames_of_channel(c))
            for c in range(num_channel_groups)
        ]
        #: Free frames per channel group: released plus never handed out.
        self._free: List[int] = [pages_per_channel] * num_channel_groups
        #: frame -> the app it is allocated to.
        self._owner: Dict[int, int] = {}
        #: app_id -> channels currently assigned to it.
        self._assigned: Dict[int, Set[int]] = {}
        #: app_id -> {channel: resident page count}.
        self._resident: Dict[int, Dict[int, int]] = {}
        self.page_tables: Dict[int, PageTable] = {}
        #: Faults serviced so far.
        self.faults = 0
        self.obs = obs
        obs.declare("fault")

    # ------------------------------------------------------------------
    # Application lifecycle
    # ------------------------------------------------------------------
    def register_app(self, app_id: int, channels: Iterable[int]) -> PageTable:
        """Create an address space bound to an initial channel set."""
        if app_id in self.page_tables:
            raise AllocationError(f"app {app_id} already registered")
        channel_set = self._validated(channels)
        if not channel_set:
            raise AllocationError("an application needs at least one channel")
        self._assigned[app_id] = channel_set
        self._resident[app_id] = {c: 0 for c in channel_set}
        table = PageTable(app_id)
        self.page_tables[app_id] = table
        return table

    def assigned_channels(self, app_id: int) -> Set[int]:
        self._check_app(app_id)
        return set(self._assigned[app_id])

    def reassign_channels(self, app_id: int, channels: Iterable[int]) -> None:
        """Update the channel set after a resource-partition decision.

        Does not move any pages by itself — migration is orchestrated by
        :class:`repro.pagemove.engine.MigrationEngine`.
        """
        self._check_app(app_id)
        channel_set = self._validated(channels)
        if not channel_set:
            raise AllocationError("an application needs at least one channel")
        self._assigned[app_id] = channel_set
        for channel in channel_set:
            self._resident[app_id].setdefault(channel, 0)

    # ------------------------------------------------------------------
    # Frame bookkeeping
    # ------------------------------------------------------------------
    def channel_of_frame(self, rpn: int) -> int:
        """The channel group a physical frame number belongs to."""
        if self.mapping is not None:
            return self.mapping.channel_of_frame(rpn)
        channel = rpn // self.pages_per_channel
        if not 0 <= channel < self.num_channel_groups:
            raise AllocationError(f"frame {rpn} outside physical memory")
        return channel

    def free_pages(self, channel: int) -> int:
        self._check_channel(channel)
        return self._free[channel]

    def resident_pages(self, app_id: int, channel: Optional[int] = None) -> int:
        self._check_app(app_id)
        counts = self._resident[app_id]
        if channel is None:
            return sum(counts.values())
        return counts.get(channel, 0)

    def least_loaded_channel(self, app_id: int) -> int:
        """The assigned channel with the fewest resident pages that still
        has free frames (the paper allocates from the least-used channel)."""
        self._check_app(app_id)
        return self._pick(app_id, None)

    # ------------------------------------------------------------------
    # Allocation primitives
    # ------------------------------------------------------------------
    def allocate_page(self, app_id: int, channel: Optional[int] = None) -> int:
        """Take one free frame for ``app_id``; returns the frame number."""
        self._check_app(app_id)
        return self._take(app_id, self._pick(app_id, channel))

    def release_page(self, app_id: int, rpn: int) -> None:
        """Return a frame ``app_id`` holds to its channel's free frames;
        a frame the app does not hold is refused with nothing changed."""
        self._check_app(app_id)
        self._release(app_id, rpn)

    def _pick(self, app_id: int, channel: Optional[int]) -> int:
        """The channel a new frame for ``app_id`` comes from.  A given
        ``channel`` must be assigned to the app and have a free frame;
        None picks the least-loaded assigned channel with a free frame,
        ties going to the lowest channel."""
        free = self._free
        if channel is None:
            resident = self._resident[app_id]
            best = best_count = None
            for candidate in self._assigned[app_id]:
                if free[candidate]:
                    count = resident[candidate]
                    if (best is None or count < best_count
                            or count == best_count and candidate < best):
                        best, best_count = candidate, count
            if best is None:
                raise AllocationError(
                    f"app {app_id}: no free frames in any assigned channel"
                )
            return best
        self._check_channel(channel)
        if channel not in self._assigned[app_id]:
            raise AllocationError(
                f"channel {channel} is not assigned to app {app_id}"
            )
        if not free[channel]:
            raise AllocationError(f"channel {channel} has no free frames")
        return channel

    def _take(self, app_id: int, channel: int) -> int:
        """Hand ``app_id`` a free frame of ``channel``, which must have
        one: the last one released, else the lowest never handed out."""
        released = self._released[channel]
        rpn = released.pop() if released else next(self._unused[channel])
        self._free[channel] -= 1
        self._resident[app_id][channel] += 1
        self._owner[rpn] = app_id
        return rpn

    def _release(self, app_id: int, rpn: int) -> int:
        """Free frame ``rpn``, which ``app_id`` must hold; returns its
        channel."""
        channel = self.channel_of_frame(rpn)
        counts = self._resident[app_id]
        if counts.get(channel, 0) <= 0:
            raise AllocationError(
                f"app {app_id} has no resident pages in channel {channel}"
            )
        if self._owner.get(rpn) != app_id:
            raise AllocationError(f"app {app_id} does not hold frame {rpn}")
        del self._owner[rpn]
        counts[channel] -= 1
        self._free[channel] += 1
        self._released[channel].append(rpn)
        return channel

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def handle_fault(self, kind: FaultKind, app_id: int, vpn: int,
                     target_channel: Optional[int] = None) -> PageFault:
        """Service a fault: allocate, update the page table, count the fault.

        For ``LOST_CHANNEL``/``REBALANCE`` the existing mapping is replaced
        and the old frame is released; ``source_channel`` records where the
        data migrates from so the migration engine can cost the copy.  A
        ``DEMAND`` fault on an invalidated entry releases its frame the
        same way; one on a valid mapping raises :class:`AllocationError`
        before any state changes.  A fault whose new frame cannot be
        allocated raises with the old frame still mapped and resident.
        The ``vm.handle_fault`` span closes however the fault ends.
        """
        obs = self.obs
        if not obs.on:
            return self._service(kind, app_id, vpn, target_channel)
        obs.begin("vm.handle_fault")
        try:
            fault = self._service(kind, app_id, vpn, target_channel)
            obs.emit(
                "fault", kind.value, app_id=app_id, vpn=vpn,
                channel=fault.channel, source_channel=fault.source_channel,
                software_cycles=fault.software_cycles,
            )
        finally:
            obs.end("vm.handle_fault")
        return fault

    def _service(self, kind: FaultKind, app_id: int, vpn: int,
                 target_channel: Optional[int]) -> PageFault:
        """:meth:`handle_fault` without the instrumentation."""
        table = self._check_app(app_id)
        old = table.lookup(vpn)
        source_channel = None
        if kind is FaultKind.DEMAND:
            if old is not None and old.valid:
                raise AllocationError(
                    f"app {app_id}: demand fault for vpn {vpn:#x}, which is "
                    "already mapped"
                )
        elif old is None:
            raise AllocationError(
                f"{kind.value} fault for unmapped vpn {vpn:#x}"
            )
        else:
            source_channel = old.channel
        if old is None:
            channel = self._pick(app_id, target_channel)
        else:
            # Release first: the old frame's channel then counts it free
            # and not resident when the new frame's channel is picked.
            old_channel = self._release(app_id, old.rpn)
            try:
                channel = self._pick(app_id, target_channel)
            except AllocationError:
                # Take the released frame back (last in, first out): a
                # refused fault changes nothing.
                self._take(app_id, old_channel)
                raise
        rpn = self._take(app_id, channel)
        table.map(vpn, rpn, channel)
        self.faults += 1
        return PageFault(kind, app_id, vpn, rpn, channel, source_channel)

    def is_balanced(self, app_id: int, tolerance: int = 1) -> bool:
        """True when resident page counts across the app's channels differ
        by at most ``tolerance`` — the condition for clearing the channel
        status register (Section 4.4)."""
        self._check_app(app_id)
        counts = [
            self._resident[app_id].get(c, 0) for c in self._assigned[app_id]
        ]
        return (max(counts) - min(counts)) <= tolerance if counts else True

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_app(self, app_id: int) -> PageTable:
        """The app's page table; raises if the app is not registered."""
        table = self.page_tables.get(app_id)
        if table is None:
            raise AllocationError(f"app {app_id} is not registered")
        return table

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.num_channel_groups:
            raise AllocationError(
                f"channel {channel} out of range [0, {self.num_channel_groups})"
            )

    def _validated(self, channels: Iterable[int]) -> Set[int]:
        channel_set = set(channels)
        for channel in channel_set:
            self._check_channel(channel)
        return channel_set
