"""Set-associative TLB with LRU replacement.

One class serves both levels of the paper's hierarchy (Table 1):

* L1 TLB — 64 entries per SM, fully associative, private per SM.
* L2 TLB — 512 entries, 16-way set associative, shared by all SMs and all
  co-executing applications (entries are tagged with the application id).

PageMove's reallocation flows flush L1 TLBs wholesale and invalidate
the L2 entries whose physical page moved (Section 4.4): one entry at a
time on the MMU's fault path, or a reallocation's whole page set in one
scan of the TLB (:meth:`TLB.invalidate_pages`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError


@dataclass
class TLBStats:
    """Hit/miss accounting for one TLB instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


@dataclass
class TLBEntry:
    """One cached translation, tagged with the owning application."""

    __slots__ = ("app_id", "vpn", "rpn", "channel")

    app_id: int
    vpn: int
    rpn: int
    channel: int


class TLB:
    """A set-associative, LRU TLB shared by multiple address spaces.

    Keys are (app_id, vpn) so co-executing applications never alias.
    ``ways >= entries / sets``; a fully associative TLB uses ``sets=1``.
    A key lives in set ``(vpn ^ (app_id * 0x9E37)) % sets``; every probe
    computes that index once, inline.
    """

    def __init__(self, entries: int, ways: Optional[int] = None, sets: int = 1,
                 name: str = "tlb") -> None:
        if entries <= 0 or sets <= 0:
            raise ConfigError("TLB entries and sets must be positive")
        if entries % sets != 0:
            raise ConfigError(f"{entries} entries not divisible into {sets} sets")
        self.entries = entries
        self.sets = sets
        self.ways = ways if ways is not None else entries // sets
        if self.ways * sets != entries:
            raise ConfigError(
                f"geometry mismatch: {sets} sets x {self.ways} ways != {entries}"
            )
        self.name = name
        # Each set is an OrderedDict for O(1) LRU: most recent at the end.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(sets)]
        self.stats = TLBStats()

    @classmethod
    def l1(cls, name: str = "l1tlb") -> "TLB":
        """Paper Table 1 L1 TLB: 64 entries, fully associative."""
        return cls(entries=64, sets=1, name=name)

    @classmethod
    def l2(cls, name: str = "l2tlb") -> "TLB":
        """Paper Table 1 L2 TLB: 512 entries, 16-way set associative."""
        return cls(entries=512, sets=512 // 16, ways=16, name=name)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def lookup(self, app_id: int, vpn: int) -> Optional[TLBEntry]:
        """Probe the TLB; updates LRU order and hit/miss statistics."""
        ways = self._sets[(vpn ^ (app_id * 0x9E37)) % self.sets]
        key = (app_id, vpn)
        entry = ways.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        ways.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, app_id: int, vpn: int) -> Optional[TLBEntry]:
        """Probe without disturbing LRU order or statistics."""
        return self._sets[(vpn ^ (app_id * 0x9E37)) % self.sets].get((app_id, vpn))

    def fill(self, app_id: int, vpn: int, rpn: int, channel: int) -> Optional[TLBEntry]:
        """Insert a translation; returns the victim entry if one was
        evicted."""
        ways = self._sets[(vpn ^ (app_id * 0x9E37)) % self.sets]
        key = (app_id, vpn)
        victim = None
        if key in ways:
            ways.move_to_end(key)
        elif len(ways) >= self.ways:
            _, victim = ways.popitem(last=False)
            self.stats.evictions += 1
        ways[key] = TLBEntry(app_id, vpn, rpn, channel)
        self.stats.fills += 1
        return victim

    # ------------------------------------------------------------------
    # Invalidation (PageMove, Section 4.4)
    # ------------------------------------------------------------------
    def invalidate(self, app_id: int, vpn: int) -> bool:
        """Drop a single translation; True if it was present."""
        ways = self._sets[(vpn ^ (app_id * 0x9E37)) % self.sets]
        removed = ways.pop((app_id, vpn), None) is not None
        if removed:
            self.stats.invalidations += 1
        return removed

    def invalidate_pages(self, app_id: int, vpns: Set[int]) -> int:
        """Drop every translation of ``app_id`` whose VPN is in the set
        ``vpns``, in one scan of the TLB; returns how many were present.

        Counts as one :meth:`invalidate` per dropped entry.  A
        reallocation moves thousands of pages through a 512-entry L2, so
        one scan costs less than a probe per page."""
        dropped = 0
        for ways in self._sets:
            victims = [key for key in ways
                       if key[0] == app_id and key[1] in vpns]
            for key in victims:
                del ways[key]
            dropped += len(victims)
        self.stats.invalidations += dropped
        return dropped

    def flush(self, app_id: Optional[int] = None) -> int:
        """Drop all entries (or all entries of one application).

        PageMove flushes every SM's L1 TLB when a reallocation begins.
        Returns the number of entries dropped.
        """
        dropped = 0
        for ways in self._sets:
            if app_id is None:
                dropped += len(ways)
                ways.clear()
            else:
                victims = [k for k in ways if k[0] == app_id]
                for key in victims:
                    del ways[key]
                dropped += len(victims)
        self.stats.flushes += 1
        return dropped

    def entries_in_channels(self, app_id: int, channels) -> List[TLBEntry]:
        """Entries of ``app_id`` whose page lives in one of ``channels`` —
        the candidates PageMove checks against the channel-status register."""
        wanted = set(channels)
        found = []
        for ways in self._sets:
            for (eid, _), entry in ways.items():
                if eid == app_id and entry.channel in wanted:
                    found.append(entry)
        return found

    def occupancy(self) -> int:
        """Number of live entries."""
        return sum(len(ways) for ways in self._sets)
