"""4-level radix page table.

One table per application (the paper isolates address spaces via per-app
CR3 roots).  The table maps 36-bit VPNs to physical page numbers (RPNs in
the paper's terminology) plus the memory channel group holding the page —
the attribute PageMove's fault handling inspects (Section 4.4).

The structure is an explicit radix tree rather than a flat dict so the
page-table walker can charge a realistic number of memory references per
walk (one per level, minus MMU-cache hits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import TranslationError
from repro.vm.address import LEVEL_BITS, LEVELS, radix_indices


@dataclass
class PageTableEntry:
    """Leaf entry: the translation plus PageMove bookkeeping.

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

    rpn: int
    channel: int
    valid: bool = True
    dirty: bool = False
    referenced: bool = False


class PageTable:
    """A 4-level page table for one application address space.

    Interior radix nodes are plain dicts keyed by the 9-bit index of their
    level; the level-4 dicts hold the :class:`PageTableEntry` leaves.
    Beside the tree, the table keeps a per-channel index of its *valid*
    entries (``channel -> {vpn: entry}``), so the planner's per-channel
    queries cost the pages of that channel, not the whole tree.  The
    index follows :meth:`map`, :meth:`unmap` and :meth:`invalidate`; an
    entry's ``channel`` and ``valid`` fields must change only through
    them.
    """

    def __init__(self, app_id: int, cr3: Optional[int] = None) -> None:
        self.app_id = app_id
        #: Emulates the CR3 root-pointer register value for identification.
        self.cr3 = cr3 if cr3 is not None else (0x1000 + app_id)
        self._root: dict = {}
        self._count = 0
        self._by_channel: Dict[int, Dict[int, PageTableEntry]] = {}

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def map(self, vpn: int, rpn: int, channel: int) -> PageTableEntry:
        """Install (or replace) the translation for ``vpn``."""
        i0, i1, i2, leaf_index = radix_indices(vpn)
        node = self._root
        for index in (i0, i1, i2):
            child = node.get(index)
            if child is None:
                child = node[index] = {}
            node = child
        old = node.get(leaf_index)
        if old is None:
            self._count += 1
        elif old.valid:
            del self._by_channel[old.channel][vpn]
        entry = node[leaf_index] = PageTableEntry(rpn=rpn, channel=channel)
        self._by_channel.setdefault(channel, {})[vpn] = entry
        return entry

    def unmap(self, vpn: int) -> PageTableEntry:
        """Remove the translation for ``vpn``; return the removed entry."""
        leaf, leaf_index = self._walk_to_leaf(vpn)
        entry = leaf.pop(leaf_index, None)
        if entry is None:
            raise TranslationError(f"vpn {vpn:#x} is not mapped (app {self.app_id})")
        self._count -= 1
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
        leaf, leaf_index = self._walk_to_leaf(vpn)
        return leaf.get(leaf_index)

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
        i0, i1, i2, _ = radix_indices(vpn)
        node = self._root
        touched = 0
        for index in (i0, i1, i2):
            touched += 1
            node = node.get(index)
            if node is None:
                return touched
        return LEVELS

    # ------------------------------------------------------------------
    # Iteration (used by the migration planner)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield every (vpn, entry) pair, valid or not, in ascending VPN
        order.  Walks the whole tree; per-channel queries use the index."""

        def recurse(node: dict, prefix: int, depth: int):
            for index in sorted(node):
                child = node[index]
                vpn_part = (prefix << LEVEL_BITS) | index
                if depth == LEVELS:
                    yield vpn_part, child
                else:
                    yield from recurse(child, vpn_part, depth + 1)

        yield from recurse(self._root, 0, 1)

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

    def _walk_to_leaf(self, vpn: int) -> Tuple[dict, int]:
        """The level-4 node holding ``vpn``'s leaf and the leaf's index;
        an empty dict when the walk hits a hole."""
        i0, i1, i2, leaf_index = radix_indices(vpn)
        node = self._root
        for index in (i0, i1, i2):
            node = node.get(index)
            if node is None:
                return {}, leaf_index  # unmapped region
        return node, leaf_index
