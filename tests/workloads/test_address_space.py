"""Address-space allocator and region arithmetic."""

import pytest

from repro.workloads.address_space import REGION_ALIGN, AddressSpace, Region


class TestAllocation:
    def test_regions_disjoint(self):
        sp = AddressSpace()
        sp.alloc("a", 10_000)
        sp.alloc("b", 5_000)
        sp.alloc_kb("c", 64, shared=True)
        sp.check_disjoint()

    def test_alignment(self):
        sp = AddressSpace()
        r = sp.alloc("a", 100)
        assert r.size % REGION_ALIGN == 0
        assert r.base % REGION_ALIGN == 0

    def test_duplicate_name_rejected(self):
        sp = AddressSpace()
        sp.alloc("a", 100)
        with pytest.raises(ValueError):
            sp.alloc("a", 100)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc("a", 0)

    def test_lookup_and_listing(self):
        sp = AddressSpace()
        a = sp.alloc("a", 4096)
        assert sp.region("a") is a
        assert sp.regions() == [a]

    def test_footprint_accounting(self):
        sp = AddressSpace()
        sp.alloc("priv", 8192, shared=False)
        sp.alloc("shr", 4096, shared=True)
        assert sp.total_bytes == 8192 + 4096
        assert sp.footprint_bytes(include_shared=False) == 8192


class TestRegion:
    def test_line_addressing(self):
        r = Region("r", base=4096, size=4096, shared=False)
        assert r.n_lines(64) == 64
        assert r.line_addr(0, 64) == 4096
        assert r.line_addr(63, 64) == 4096 + 63 * 64
        assert r.line_addr(64, 64) == 4096  # wraps

    def test_contains(self):
        r = Region("r", 4096, 4096, False)
        assert r.contains(4096)
        assert r.contains(8191)
        assert not r.contains(8192)
        assert not r.contains(0)

    def test_slices_partition(self):
        r = Region("r", 0, 16 * REGION_ALIGN, True)
        parts = [r.slice(k, 4) for k in range(4)]
        assert parts[0].base == r.base
        assert parts[-1].end == r.end
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.base

    def test_slice_bounds(self):
        r = Region("r", 0, 16 * REGION_ALIGN, True)
        with pytest.raises(ValueError):
            r.slice(4, 4)

    def test_slice_too_small(self):
        r = Region("r", 0, REGION_ALIGN, True)
        with pytest.raises(ValueError):
            r.slice(0, 4)

    def test_small_region_slices_per_line(self):
        # water_ns's 16 KB migratory buffer shared by 8 cores
        r = Region("r", 0, 4 * REGION_ALIGN, True)
        parts = [r.slice(k, 8, 64) for k in range(8)]
        assert [p.size for p in parts] == [2048] * 8
        assert parts[0].base == r.base
        assert parts[-1].end == r.end
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.base

    def test_aligned_slices_ignore_line_bytes(self):
        r = Region("r", 0, 16 * REGION_ALIGN + 64, True)
        assert [r.slice(k, 4, 64) for k in range(4)] == [
            r.slice(k, 4) for k in range(4)
        ]

    def test_slice_too_small_per_line(self):
        r = Region("r", 0, REGION_ALIGN, True)
        with pytest.raises(ValueError):
            r.slice(0, 128, 64)
