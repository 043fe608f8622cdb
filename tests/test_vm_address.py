"""Unit tests for address helpers (repro.vm.address)."""

import pytest

from repro.errors import AddressError
from repro.vm import PAGE_SIZE, VirtualAddress, page_number, page_offset, radix_indices


class TestPageHelpers:
    def test_page_number(self):
        assert page_number(0) == 0
        assert page_number(PAGE_SIZE) == 1
        assert page_number(PAGE_SIZE * 3 + 17) == 3

    def test_page_offset(self):
        assert page_offset(0) == 0
        assert page_offset(PAGE_SIZE + 17) == 17
        assert page_offset(PAGE_SIZE - 1) == PAGE_SIZE - 1

    def test_custom_page_shift(self):
        # 64 KB pages
        assert page_number(0x20000, page_shift=16) == 2
        assert page_offset(0x2ABCD, page_shift=16) == 0xABCD

    def test_negative_address_rejected(self):
        with pytest.raises(AddressError):
            page_number(-1)
        with pytest.raises(AddressError):
            page_offset(-1)


class TestVirtualAddress:
    def test_vpn_and_offset(self):
        va = VirtualAddress(PAGE_SIZE * 5 + 100)
        assert va.vpn == 5
        assert va.offset == 100

    def test_rejects_out_of_space(self):
        with pytest.raises(AddressError):
            VirtualAddress(1 << 48)
        with pytest.raises(AddressError):
            VirtualAddress(-1)

    def test_table_indices_cover_vpn(self):
        va = VirtualAddress.from_vpn(0b101_000000001_000000010_000000011)
        i0, i1, i2, i3 = va.table_indices()
        assert i3 == 0b000000011
        assert i2 == 0b000000010
        assert i1 == 0b000000001
        assert i0 == 0b101

    def test_from_vpn_roundtrip(self):
        for vpn in (0, 1, 12345, (1 << 36) - 1):
            assert VirtualAddress.from_vpn(vpn).vpn == vpn

    def test_indices_are_nine_bits(self):
        va = VirtualAddress((1 << 48) - 1)
        for index in va.table_indices():
            assert 0 <= index < 512


class TestRadixIndices:
    def test_splits_into_four_nine_bit_indices(self):
        vpn = 0b101_000000001_000000010_000000011
        assert radix_indices(vpn) == (0b101, 1, 2, 3)
        assert radix_indices((1 << 36) - 1) == (511, 511, 511, 511)
        assert radix_indices(0) == (0, 0, 0, 0)

    @pytest.mark.parametrize("vpn", [-1, 1 << 36])
    def test_out_of_range_vpn_rejected(self, vpn):
        with pytest.raises(AddressError):
            radix_indices(vpn)

    def test_virtual_address_uses_the_same_split(self):
        for vpn in (0, 1, 12345, 0x123456789, (1 << 36) - 1):
            assert VirtualAddress.from_vpn(vpn).table_indices() == radix_indices(vpn)
