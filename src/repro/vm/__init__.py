"""GPU virtual memory substrate.

Models the paper's Figure 9 memory-management stack: per-SM L1 TLBs, a
shared L2 TLB, a multi-threaded page-table walker over a 4-level page
table, and the GPU driver that owns per-channel free physical page lists
and handles page faults — including the two new PageMove fault flavours
raised when a translation lands in a deallocated or not-yet-populated
memory channel (Section 4.4).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.vm.address": (
        "PAGE_SHIFT", "PAGE_SIZE", "VirtualAddress", "page_number",
        "page_offset", "radix_indices",
    ),
    "repro.vm.page_table": ("PageTable", "PageTableEntry"),
    "repro.vm.tlb": ("TLB", "TLBStats"),
    "repro.vm.ptw": ("PageTableWalker", "WalkResult"),
    "repro.vm.channel_registry": (
        "ChannelStatusRegister", "ReallocationDirection",
    ),
    "repro.vm.driver": ("FaultKind", "GPUDriver", "PageFault"),
    "repro.vm.oversubscription": (
        "FaultOverheadModel", "OversubscriptionCharge",
    ),
    "repro.vm.mmu": ("MMU", "MMUStats", "Translation"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
