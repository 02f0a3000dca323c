"""Trace record format shared by workload generators and the CPU model.

A workload is one access stream per core.  Each record is a plain tuple
``(gap, addr, flags)``:

* ``gap`` — non-memory instructions executed before this operation (the
  core charges them at its issue width);
* ``addr`` — byte address touched (ignored for barriers);
* ``flags`` — bit 0: write; bits 1–2: ILP class (how much of a miss the
  out-of-order window can hide — 0 dependent, 1 moderate, 2 streaming);
  bit 3: barrier marker (global synchronization point).

Tuples instead of objects keep the generator→core hot path allocation-
light; the helpers below are for tests and workload authors, not the
simulator loop.

:class:`ReplayWorkload` memoizes a workload's streams in compact
``array`` columns, so a sweep that replays one stream under many
configurations generates it only once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

FLAG_WRITE = 0x1
ILP_SHIFT = 1
ILP_MASK = 0x3
FLAG_BARRIER = 0x8

#: ILP classes
ILP_DEPENDENT = 0   #: pointer-chase style loads; little latency hiding
ILP_MODERATE = 1    #: typical compute loops
ILP_STREAMING = 2   #: prefetch-friendly sequential streams

Record = Tuple[int, int, int]


def make_flags(write: bool, ilp: int = ILP_MODERATE, barrier: bool = False) -> int:
    """Compose a flags word."""
    if not 0 <= ilp <= 2:
        raise ValueError(f"ilp class must be 0..2, got {ilp}")
    f = (ilp & ILP_MASK) << ILP_SHIFT
    if write:
        f |= FLAG_WRITE
    if barrier:
        f |= FLAG_BARRIER
    return f


def barrier_record() -> Record:
    """A synchronization record (no memory access)."""
    return (0, 0, FLAG_BARRIER)


def is_write(flags: int) -> bool:
    """True for stores."""
    return bool(flags & FLAG_WRITE)


def ilp_class(flags: int) -> int:
    """ILP class encoded in ``flags``."""
    return (flags >> ILP_SHIFT) & ILP_MASK


def is_barrier(flags: int) -> bool:
    """True for barrier markers."""
    return bool(flags & FLAG_BARRIER)


@dataclass(frozen=True)
class WorkloadMeta:
    """Descriptive metadata attached to a workload.

    ``suite`` is ``"splash2"``/``"alpbench"``/``"synthetic"``; ``kind`` is
    ``"scientific"`` or ``"multimedia"`` (the paper groups results this
    way).  Footprints are per core, in bytes, and include shared regions.
    """

    name: str
    suite: str
    kind: str
    accesses_per_core: int
    footprint_bytes: int
    shared_bytes: int
    description: str = ""


class Workload:
    """A named bundle of per-core access streams.

    ``streams()`` returns fresh, independent iterators — a workload can be
    replayed across techniques/cache sizes, which is how the harness keeps
    comparisons paired.
    """

    def __init__(self, meta: WorkloadMeta, stream_factory) -> None:
        self.meta = meta
        self._factory = stream_factory

    @property
    def name(self) -> str:
        """Workload name (e.g. ``water_ns``)."""
        return self.meta.name

    def streams(self, n_cores: int) -> list:
        """Fresh per-core record iterators."""
        return self._factory(n_cores)


#: most records a :class:`ReplayWorkload` stores (16 Mi records ≈ 218 MB
#: of columns: one 8-core scale-1.0 point, barriers included); a longer
#: stream is generated afresh on every replay instead
REPLAY_MAX_RECORDS = 1 << 24

#: column typecodes of one core's memo — gap (``I``, 4 B), address
#: (``Q``, 8 B), flags (``B``, 1 B): 13 B per record
_COLUMN_TYPES = ("I", "Q", "B")

Columns = Tuple[array, array, array]


def _drain(stream: Iterator[Record], budget: int) -> Optional[Columns]:
    """Columns of one core's records; ``None`` if they do not fit.

    A stream does not fit when it holds more than ``budget`` records or
    a value its column cannot store (a gap ≥ 2**32, an address ≥ 2**64,
    a negative or non-``int`` field).
    """
    gaps, addrs, flags = (array(code) for code in _COLUMN_TYPES)
    add_gap, add_addr, add_flags = gaps.append, addrs.append, flags.append
    try:
        for gap, addr, flag in islice(stream, budget + 1):
            add_gap(gap)
            add_addr(addr)
            add_flags(flag)
    except (OverflowError, TypeError):
        return None
    return None if len(gaps) > budget else (gaps, addrs, flags)


class ReplayWorkload(Workload):
    """A one-time memo of another workload's per-core streams.

    The first :meth:`streams` call drains the source's streams, one core
    at a time, into ``array`` columns (:data:`_COLUMN_TYPES`); every
    later call returns ``zip`` iterators over those columns, which yield
    exactly the source's records.  The build runs wherever the first
    replay is requested (inside ``simulate``).  A build that raises
    leaves no columns behind; that call hands out a fresh source
    generator instead, so the caller meets the source's own error in
    the order it consumes records, and the next call builds again.

    A stream that does not fit (more than :data:`REPLAY_MAX_RECORDS`
    records, or a value no column can store) is never memoized: that
    call and every later one stream from a fresh source generator.
    """

    def __init__(self, source: Workload) -> None:
        self.meta = source.meta
        self.source = source
        self._columns: Optional[List[Columns]] = None
        self._replayable = True

    @property
    def built(self) -> bool:
        """True once the columns hold the source's streams."""
        return self._columns is not None

    def streams(self, n_cores: int) -> list:
        """Per-core iterators over the memo (built on the first call)."""
        if self._columns is None and self._replayable:
            try:
                self._columns = self._build(n_cores)
            except Exception:
                # the build reads the source core by core; a fresh
                # generator makes the simulation raise what an
                # unmemoized run raises, where it raises it
                return self.source.streams(n_cores)
            self._replayable = self._columns is not None
        if self._columns is None or len(self._columns) != n_cores:
            return self.source.streams(n_cores)
        return [zip(*columns) for columns in self._columns]

    def _build(self, n_cores: int) -> Optional[List[Columns]]:
        """Drain every source stream into columns (``None``: no fit)."""
        live = list(self.source.streams(n_cores))
        budget = REPLAY_MAX_RECORDS
        built: List[Columns] = []
        for core in range(len(live)):
            # drop each generator (and its history) once drained
            stream, live[core] = live[core], None
            columns = _drain(stream, budget)
            if columns is None:
                return None
            budget -= len(columns[0])
            built.append(columns)
        return built


def validate_stream(records: Iterator[Record], max_records: int = 1_000_000) -> dict:
    """Sanity-scan a stream; returns summary stats (test helper).

    Checks gaps are non-negative, flags are well-formed, and addresses are
    non-negative.  Stops after ``max_records``.
    """
    n = writes = barriers = 0
    gaps = 0
    min_addr, max_addr = None, None
    for gap, addr, flags in records:
        if gap < 0:
            raise ValueError(f"negative gap at record {n}")
        if addr < 0:
            raise ValueError(f"negative address at record {n}")
        gaps += gap
        if is_barrier(flags):
            barriers += 1
        else:
            if is_write(flags):
                writes += 1
            min_addr = addr if min_addr is None else min(min_addr, addr)
            max_addr = addr if max_addr is None else max(max_addr, addr)
        n += 1
        if n >= max_records:
            break
    return {
        "records": n,
        "writes": writes,
        "barriers": barriers,
        "total_gap": gaps,
        "min_addr": min_addr,
        "max_addr": max_addr,
    }
