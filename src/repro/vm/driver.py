"""GPU driver model: physical page allocation and fault handling.

The driver (Figure 9, Section 4.4) owns a free-physical-page list per
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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

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
        and a ``vm.handle_fault`` host phase per serviced fault."""
        if mapping is not None:
            num_channel_groups = mapping.num_channel_groups
            pages_per_channel = min(pages_per_channel, mapping.pages_per_channel)
        if num_channel_groups <= 0 or pages_per_channel <= 0:
            raise AllocationError("driver geometry must be positive")
        self.num_channel_groups = num_channel_groups
        self.pages_per_channel = pages_per_channel
        self.mapping = mapping
        #: Free frame numbers per channel group, popped from the tail so
        #: low frame numbers are handed out first.
        if mapping is None:
            # Contiguous layout: channel c owns [c*N, (c+1)*N).
            self._free: List[List[int]] = [
                list(range(c * pages_per_channel + pages_per_channel - 1,
                           c * pages_per_channel - 1, -1))
                for c in range(num_channel_groups)
            ]
        else:
            self._free = []
            for c in range(num_channel_groups):
                frames = []
                for rpn in mapping.frames_of_channel(c):
                    frames.append(rpn)
                    if len(frames) >= pages_per_channel:
                        break
                frames.reverse()
                self._free.append(frames)
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
        return len(self._free[channel])

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
        candidates = [
            c for c in sorted(self._assigned[app_id]) if self._free[c]
        ]
        if not candidates:
            raise AllocationError(
                f"app {app_id}: no free frames in any assigned channel"
            )
        return min(candidates, key=lambda c: self._resident[app_id].get(c, 0))

    # ------------------------------------------------------------------
    # Allocation primitives
    # ------------------------------------------------------------------
    def allocate_page(self, app_id: int, channel: Optional[int] = None) -> int:
        """Take one free frame for ``app_id``; returns the frame number."""
        self._check_app(app_id)
        if channel is None:
            channel = self.least_loaded_channel(app_id)
        self._check_channel(channel)
        if channel not in self._assigned[app_id]:
            raise AllocationError(
                f"channel {channel} is not assigned to app {app_id}"
            )
        if not self._free[channel]:
            raise AllocationError(f"channel {channel} has no free frames")
        rpn = self._free[channel].pop()
        counts = self._resident[app_id]
        counts[channel] = counts.get(channel, 0) + 1
        return rpn

    def release_page(self, app_id: int, rpn: int) -> None:
        """Return a frame to its channel's free list."""
        self._check_app(app_id)
        channel = self.channel_of_frame(rpn)
        counts = self._resident[app_id]
        if counts.get(channel, 0) <= 0:
            raise AllocationError(
                f"app {app_id} has no resident pages in channel {channel}"
            )
        counts[channel] -= 1
        self._free[channel].append(rpn)

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
        """
        obs = self.obs
        if obs.on:
            obs.begin("vm.handle_fault")
        self._check_app(app_id)
        table = self.page_tables[app_id]
        source_channel = None
        old = table.lookup(vpn)
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
        if old is not None:
            self.release_page(app_id, old.rpn)
        try:
            rpn = self.allocate_page(app_id, target_channel)
        except AllocationError:
            if old is not None:
                # Take the released frame back: a refused fault changes
                # nothing, and the table still maps vpn to that frame.
                old_channel = self.channel_of_frame(old.rpn)
                self._free[old_channel].pop()
                self._resident[app_id][old_channel] += 1
            raise
        channel = self.channel_of_frame(rpn)
        table.map(vpn, rpn, channel)
        fault = PageFault(
            kind=kind,
            app_id=app_id,
            vpn=vpn,
            rpn=rpn,
            channel=channel,
            source_channel=source_channel,
        )
        self.faults += 1
        if obs.on:
            obs.emit(
                "fault", kind.value, app_id=app_id, vpn=vpn,
                channel=channel, source_channel=source_channel,
                software_cycles=fault.software_cycles,
            )
            obs.end("vm.handle_fault")
        return fault

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
    def _check_app(self, app_id: int) -> None:
        if app_id not in self.page_tables:
            raise AllocationError(f"app {app_id} is not registered")

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
