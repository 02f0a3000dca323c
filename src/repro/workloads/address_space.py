"""Address-space layout for synthetic workloads.

Workloads carve a flat byte address space into named regions: per-core
private heaps, shared read-only data, shared read-write (migratory /
producer-consumer) buffers.  Regions are line-aligned and never overlap,
so sharing behaviour is fully determined by which cores' generators draw
from which regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Regions are aligned to this many bytes (≥ any cache line in use).
REGION_ALIGN = 4096


@dataclass(frozen=True)
class Region:
    """A contiguous, line-aligned chunk of the address space."""

    name: str
    base: int
    size: int
    shared: bool

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.size

    def n_lines(self, line_bytes: int) -> int:
        """Number of cache lines the region spans."""
        return self.size // line_bytes

    def line_addr(self, index: int, line_bytes: int) -> int:
        """Byte address of the ``index``-th line (modulo region size)."""
        n = self.size // line_bytes
        return self.base + (index % n) * line_bytes

    def contains(self, byte_addr: int) -> bool:
        """True when ``byte_addr`` falls inside the region."""
        return self.base <= byte_addr < self.end

    def slice(self, k: int, n: int, line_bytes: Optional[int] = None) -> "Region":
        """The ``k``-th of ``n`` equal, aligned sub-regions (chunking).

        Slices are :data:`REGION_ALIGN`-aligned.  A region too small for
        ``n`` such slices is cut at ``line_bytes`` granularity instead,
        when given (e.g. a 16 KB region shared by 8 cores).
        """
        if not 0 <= k < n:
            raise ValueError(f"slice {k} of {n} out of range")
        share = self.size // n
        step = share // REGION_ALIGN * REGION_ALIGN
        if step == 0 and line_bytes:
            step = share // line_bytes * line_bytes
        if step == 0:
            raise ValueError(f"region {self.name} too small to slice {n} ways")
        base = self.base + k * step
        size = step if k < n - 1 else self.end - base
        return Region(f"{self.name}[{k}/{n}]", base, size, self.shared)


class AddressSpace:
    """Bump allocator of non-overlapping regions."""

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, size: int, shared: bool = False) -> Region:
        """Allocate ``size`` bytes (rounded up to the alignment)."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if size <= 0:
            raise ValueError("region size must be positive")
        size = -(-size // REGION_ALIGN) * REGION_ALIGN
        region = Region(name, self._next, size, shared)
        self._next = region.end
        self._regions[name] = region
        return region

    def alloc_kb(self, name: str, kb: int, shared: bool = False) -> Region:
        """Allocate ``kb`` kilobytes."""
        return self.alloc(name, kb * 1024, shared)

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        return self._regions[name]

    def regions(self) -> List[Region]:
        """All regions in allocation order."""
        return list(self._regions.values())

    @property
    def total_bytes(self) -> int:
        """Total allocated bytes."""
        return sum(r.size for r in self._regions.values())

    def footprint_bytes(self, include_shared: bool = True) -> int:
        """Aggregate footprint, optionally excluding shared regions."""
        return sum(
            r.size for r in self._regions.values() if include_shared or not r.shared
        )

    def check_disjoint(self) -> None:
        """Assert regions do not overlap (test helper)."""
        regs = sorted(self._regions.values(), key=lambda r: r.base)
        for a, b in zip(regs, regs[1:]):
            if a.end > b.base:
                raise AssertionError(f"regions {a.name} and {b.name} overlap")
