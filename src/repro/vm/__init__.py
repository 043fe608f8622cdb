"""GPU virtual memory substrate.

Models the paper's Figure 9 memory-management stack: per-SM L1 TLBs, a
shared L2 TLB, a multi-threaded page-table walker over a 4-level page
table, and the GPU driver that owns per-channel free physical page lists
and handles page faults — including the two new PageMove fault flavours
raised when a translation lands in a deallocated or not-yet-populated
memory channel (Section 4.4).
"""

from repro.vm.address import (
    PAGE_SHIFT,
    PAGE_SIZE,
    VirtualAddress,
    page_number,
    page_offset,
    radix_indices,
)
from repro.vm.page_table import PageTable, PageTableEntry
from repro.vm.tlb import TLB, TLBStats
from repro.vm.ptw import PageTableWalker, WalkResult
from repro.vm.channel_registry import ChannelStatusRegister, ReallocationDirection
from repro.vm.driver import FaultKind, GPUDriver, PageFault
from repro.vm.mmu import MMU, MMUStats, Translation
from repro.vm.oversubscription import FaultOverheadModel, OversubscriptionCharge

__all__ = [
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "VirtualAddress",
    "page_number",
    "page_offset",
    "radix_indices",
    "PageTable",
    "PageTableEntry",
    "TLB",
    "TLBStats",
    "PageTableWalker",
    "WalkResult",
    "ChannelStatusRegister",
    "ReallocationDirection",
    "FaultKind",
    "GPUDriver",
    "PageFault",
    "FaultOverheadModel",
    "OversubscriptionCharge",
    "MMU",
    "MMUStats",
    "Translation",
]
