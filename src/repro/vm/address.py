"""Virtual address helpers.

The GPU uses 48-bit virtual addresses with 4 KB pages by default (the
paper's baseline; Section 5 evaluates other sizes).  A virtual page number
(VPN) therefore has 36 bits, split into four 9-bit indices for the 4-level
page table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import AddressError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT      #: 4 KB baseline page size
VA_BITS = 48
LEVEL_BITS = 9                   #: radix of each page-table level
LEVELS = 4
VPN_BITS = LEVELS * LEVEL_BITS   #: 36: the page numbers the table covers


def page_number(address: int, page_shift: int = PAGE_SHIFT) -> int:
    """Extract the page number from a byte address."""
    if address < 0:
        raise AddressError(f"address must be non-negative, got {address}")
    return address >> page_shift

def page_offset(address: int, page_shift: int = PAGE_SHIFT) -> int:
    """Extract the within-page byte offset from a byte address."""
    if address < 0:
        raise AddressError(f"address must be non-negative, got {address}")
    return address & ((1 << page_shift) - 1)

def check_vpn(vpn: int) -> None:
    """Raise :class:`AddressError` unless ``vpn`` is in ``[0, 2**VPN_BITS)``."""
    if not 0 <= vpn < 1 << VPN_BITS:
        raise AddressError(f"vpn {vpn:#x} outside the {VPN_BITS}-bit page-number space")

def radix_indices(vpn: int) -> Tuple[int, int, int, int]:
    """The four radix indices of ``vpn`` for the 4-level page-table walk,
    root level first.

    The shifts are written out for ``LEVELS`` = 4 levels of
    ``LEVEL_BITS`` = 9 bits; a VPN outside ``[0, 2**VPN_BITS)`` raises
    :class:`AddressError`.
    """
    check_vpn(vpn)
    return vpn >> 27, (vpn >> 18) & 511, (vpn >> 9) & 511, vpn & 511


@dataclass(frozen=True)
class VirtualAddress:
    """A validated virtual address with page-table index helpers."""

    value: int
    page_shift: int = PAGE_SHIFT

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << VA_BITS):
            raise AddressError(
                f"virtual address {self.value:#x} outside {VA_BITS}-bit space"
            )

    @property
    def vpn(self) -> int:
        """Virtual page number."""
        return self.value >> self.page_shift

    @property
    def offset(self) -> int:
        """Byte offset within the page."""
        return self.value & ((1 << self.page_shift) - 1)

    def table_indices(self) -> Tuple[int, ...]:
        """The four radix indices used by the 4-level page-table walk,
        ordered from the root level down."""
        return radix_indices(self.vpn)

    @classmethod
    def from_vpn(cls, vpn: int, page_shift: int = PAGE_SHIFT) -> "VirtualAddress":
        """Build the base address of virtual page ``vpn``."""
        return cls(vpn << page_shift, page_shift)
