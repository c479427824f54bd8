"""Tests for per-pointer metadata."""

import pytest

from repro.core.identifier import Identifier
from repro.core.metadata import PointerMetadata
from repro.errors import ProgramError


@pytest.fixture
def ident():
    return Identifier(key=7, lock=0x6000_0000)


class TestConstruction:
    def test_identifier_only(self, ident):
        metadata = PointerMetadata(identifier=ident)
        assert not metadata.has_bounds

    def test_with_bounds(self, ident):
        metadata = PointerMetadata(identifier=ident, base=0x100, bound=0x200)
        assert metadata.has_bounds

    def test_partial_bounds_rejected(self, ident):
        with pytest.raises(ProgramError):
            PointerMetadata(identifier=ident, base=0x100, bound=None)

    def test_inverted_bounds_rejected(self, ident):
        with pytest.raises(ProgramError):
            PointerMetadata(identifier=ident, base=0x200, bound=0x100)

    def test_for_allocation_helper(self, ident):
        metadata = PointerMetadata.for_allocation(ident, base=0x1000, size=64)
        assert metadata.base == 0x1000 and metadata.bound == 0x1040
        plain = PointerMetadata.for_allocation(ident, 0x1000, 64, with_bounds=False)
        assert not plain.has_bounds


class TestBoundsCheck:
    def test_in_bounds_access(self, ident):
        metadata = PointerMetadata(identifier=ident, base=0x100, bound=0x140)
        assert metadata.contains(0x100, 8)
        assert metadata.contains(0x138, 8)

    def test_out_of_bounds_access(self, ident):
        metadata = PointerMetadata(identifier=ident, base=0x100, bound=0x140)
        assert not metadata.contains(0x140, 1)
        assert not metadata.contains(0xFF, 1)
        assert not metadata.contains(0x13C, 8)

    def test_byte_granularity(self, ident):
        """§8: bounds checking is byte granular."""
        metadata = PointerMetadata(identifier=ident, base=0x100, bound=0x101)
        assert metadata.contains(0x100, 1)
        assert not metadata.contains(0x100, 2)

    def test_no_bounds_always_contains(self, ident):
        metadata = PointerMetadata(identifier=ident)
        assert metadata.contains(0xDEAD_BEEF, 8)

    def test_str_rendering(self, ident):
        assert "key=7" in str(PointerMetadata(identifier=ident))
        assert "base" in str(PointerMetadata(identifier=ident, base=0, bound=8))
