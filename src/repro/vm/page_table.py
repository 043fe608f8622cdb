"""4-level radix page table.

One table per application (the paper isolates address spaces via per-app
CR3 roots).  The table maps 36-bit VPNs to physical page numbers (RPNs in
the paper's terminology) plus the memory channel group holding the page —
the attribute PageMove's fault handling inspects (Section 4.4).

The leaves sit in one flat ``vpn -> entry`` dict, so a translation costs
one lookup.  The radix structure is kept as the set of interior-node
prefixes of each level, which is all the page-table walker needs to
charge a realistic number of memory references per walk (one per level
touched, minus MMU-cache hits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.errors import TranslationError
from repro.vm.address import LEVEL_BITS, LEVELS, VPN_BITS, check_vpn

#: One past the highest VPN; the hot paths test the range inline and call
#: :func:`check_vpn` only to raise.
_VPN_LIMIT = 1 << VPN_BITS

#: Right shift giving a VPN's node prefix at each interior level, root
#: level first: a walk goes below level ``d`` only where the level-``d``
#: prefix ``vpn >> _PREFIX_SHIFTS[d - 1]`` is present.
_PREFIX_SHIFTS = tuple(LEVEL_BITS * (LEVELS - level) for level in range(1, LEVELS))


@dataclass
class PageTableEntry:
    """Leaf entry: the translation plus PageMove bookkeeping.

    Slotted like :class:`~repro.vm.tlb.TLBEntry`, so every field is
    given (:meth:`PageTable.map` builds entries valid, clean and
    unreferenced): a table holds one entry per mapped page, and slots
    keep each about 40 bytes smaller.

    Attributes
    ----------
    rpn:
        Real (physical) page number.
    channel:
        Memory channel group currently holding the physical page.
    valid:
        Cleared when PageMove invalidates the entry during reallocation.
    dirty, referenced:
        Standard status bits (used by tests and the migration planner).
    """

    __slots__ = ("rpn", "channel", "valid", "dirty", "referenced")

    rpn: int
    channel: int
    valid: bool
    dirty: bool
    referenced: bool


class PageTable:
    """A 4-level page table for one application address space.

    The leaves are one ``vpn -> PageTableEntry`` dict.  Beside them the
    table keeps, per interior level, the set of VPN prefixes that have a
    node there (``vpn >> 27``, ``>> 18`` and ``>> 9``); :meth:`map` adds
    them and nothing removes them, as a radix tree's interior nodes stay
    allocated after their leaves go.  It also keeps a per-channel index
    of its *valid* entries (``channel -> {vpn: entry}``), so the
    planner's per-channel queries cost the pages of that channel, not the
    whole table.  The index follows :meth:`map`, :meth:`unmap` and
    :meth:`invalidate`; an entry's ``channel`` and ``valid`` fields must
    change only through them.  Every method taking a VPN raises
    :class:`~repro.errors.AddressError` for one outside the 36-bit space.
    """

    def __init__(self, app_id: int, cr3: Optional[int] = None) -> None:
        self.app_id = app_id
        #: Emulates the CR3 root-pointer register value for identification.
        self.cr3 = cr3 if cr3 is not None else (0x1000 + app_id)
        self._leaves: Dict[int, PageTableEntry] = {}
        self._interior: Tuple[Set[int], ...] = tuple(set() for _ in _PREFIX_SHIFTS)
        self._by_channel: Dict[int, Dict[int, PageTableEntry]] = {}

    def __len__(self) -> int:
        return len(self._leaves)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def map(self, vpn: int, rpn: int, channel: int) -> PageTableEntry:
        """Install (or replace) the translation for ``vpn``."""
        old = self._leaves.get(vpn)
        if old is None:
            if not 0 <= vpn < _VPN_LIMIT:
                check_vpn(vpn)
            interior = self._interior
            # Prefixes nest, so a present deepest one implies the rest.
            if vpn >> LEVEL_BITS not in interior[-1]:
                for shift, prefixes in zip(_PREFIX_SHIFTS, interior):
                    prefixes.add(vpn >> shift)
        elif old.valid:
            del self._by_channel[old.channel][vpn]
        entry = PageTableEntry(rpn, channel, True, False, False)
        self._leaves[vpn] = entry
        bucket = self._by_channel.get(channel)
        if bucket is None:
            bucket = self._by_channel[channel] = {}
        bucket[vpn] = entry
        return entry

    def unmap(self, vpn: int) -> PageTableEntry:
        """Remove the translation for ``vpn``; return the removed entry."""
        entry = self._leaves.pop(vpn, None)
        if entry is None:
            check_vpn(vpn)
            raise TranslationError(f"vpn {vpn:#x} is not mapped (app {self.app_id})")
        if entry.valid:
            del self._by_channel[entry.channel][vpn]
        return entry

    def invalidate(self, vpn: int) -> PageTableEntry:
        """Clear the valid bit (PageMove's PTW-driven invalidation)."""
        entry = self.lookup(vpn)
        if entry is None:
            raise TranslationError(f"vpn {vpn:#x} is not mapped (app {self.app_id})")
        if entry.valid:
            entry.valid = False
            del self._by_channel[entry.channel][vpn]
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Return the entry for ``vpn`` or None; does not touch status bits."""
        entry = self._leaves.get(vpn)
        # map admits only in-range VPNs, so a hit needs no range check.
        if entry is None and not 0 <= vpn < _VPN_LIMIT:
            check_vpn(vpn)
        return entry

    def translate(self, vpn: int) -> Optional[PageTableEntry]:
        """Lookup that also sets the referenced bit on a valid hit."""
        entry = self.lookup(vpn)
        if entry is not None and entry.valid:
            entry.referenced = True
            return entry
        return None

    def levels_touched(self, vpn: int) -> int:
        """How many radix levels a walk for ``vpn`` traverses before
        either finding the leaf or hitting a hole (for PTW latency)."""
        check_vpn(vpn)
        interior = zip(_PREFIX_SHIFTS, self._interior)
        for level, (shift, prefixes) in enumerate(interior, 1):
            if vpn >> shift not in prefixes:
                return level
        return LEVELS

    # ------------------------------------------------------------------
    # Iteration (used by the migration planner)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield every (vpn, entry) pair, valid or not, in ascending VPN
        order.  Sorts the whole table; per-channel queries use the index."""
        leaves = self._leaves
        return ((vpn, leaves[vpn]) for vpn in sorted(leaves))

    def pages_in_channel(self, channel: int) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield the valid (vpn, entry) pairs whose physical page lives in
        ``channel``, in ascending VPN order — the pages PageMove must
        migrate when that channel is reallocated away.  Costs a sort of
        that channel's pages only."""
        bucket = self._by_channel.get(channel, {})
        return ((vpn, bucket[vpn]) for vpn in sorted(bucket))

    def channel_page_counts(self) -> Dict[int, int]:
        """Count of valid resident pages per channel group, in ascending
        channel order (the driver's balance bookkeeping from Section
        4.4)."""
        return {
            channel: len(bucket)
            for channel, bucket in sorted(self._by_channel.items()) if bucket
        }
