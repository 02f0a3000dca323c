"""The L1 write buffer.

The paper's L1 caches are write-through; stores are absorbed by a small
write buffer that drains to the private L2 in the background (Fig. 1).  The
buffer matters to the techniques in two ways:

* **turn-off legality** — Table I: a clean L2 line may only be gated "if no
  pending write", i.e. no buffered store to that line is still in flight;
* **store visibility** — a store becomes globally visible (and the L2 line
  becomes Modified, invalidating remote copies) only when its buffer entry
  drains.

The buffer is modeled as a bounded FIFO with *write coalescing*: a store to
a line already buffered merges into the existing entry (standard write
buffer behaviour; keeps L2 write traffic realistic).  Draining is driven by
the owning core's timeline: ``pop_ready`` hands the next entry to the L2
once the L2-side port is free.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class WriteBufferStats:
    """Aggregate write-buffer statistics."""

    inserts: int = 0
    coalesced: int = 0
    drains: int = 0
    full_stalls: int = 0
    full_stall_cycles: int = 0


class WriteBuffer:
    """Bounded coalescing FIFO of pending line writes.

    Entries are ``line_addr -> ready_time`` where ``ready_time`` is the
    earliest cycle the entry may drain (insert time + fixed latency).  The
    FIFO order of the underlying ``OrderedDict`` is the drain order.

    The head entry's ready time is cached in ``_head_ready`` (maintained
    on insert/pop): the simulator's event loop re-validates drain-event
    heap entries against it on every pop, which made the former
    ``next(iter(...))`` per call measurable.  Fused core store paths
    update the cache in lockstep with the FIFO.
    """

    __slots__ = ("capacity", "drain_latency", "_fifo", "_head_ready", "stats")

    def __init__(self, capacity: int, drain_latency: int = 1) -> None:
        if capacity < 1:
            raise ValueError("write buffer capacity must be >= 1")
        self.capacity = capacity
        self.drain_latency = drain_latency
        self._fifo: "OrderedDict[int, int]" = OrderedDict()
        self._head_ready = -1
        self.stats = WriteBufferStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    def is_full(self) -> bool:
        """True when a non-coalescing insert would overflow."""
        return len(self._fifo) >= self.capacity

    def has_pending(self, line_addr: int) -> bool:
        """True when a store to ``line_addr`` is still buffered.

        This is the "pending write" check of Table I — the L2 consults it
        before gating a line.
        """
        return line_addr in self._fifo

    def can_accept(self, line_addr: int) -> bool:
        """True when a store to ``line_addr`` can be inserted right now."""
        return line_addr in self._fifo or len(self._fifo) < self.capacity

    def insert(self, line_addr: int, now: int) -> bool:
        """Buffer a store to ``line_addr`` at time ``now``.

        Returns True if the store coalesced into an existing entry.  The
        caller must have checked :meth:`can_accept`.
        """
        st = self.stats
        fifo = self._fifo
        if line_addr in fifo:
            st.coalesced += 1
            st.inserts += 1
            return True
        if len(fifo) >= self.capacity:
            raise RuntimeError("insert() on full write buffer")
        ready = now + self.drain_latency
        if not fifo:
            self._head_ready = ready
        fifo[line_addr] = ready
        st.inserts += 1
        return False

    def head_ready_time(self) -> int:
        """Ready time of the oldest entry; ``-1`` when empty."""
        return self._head_ready

    def pop_ready(self, now: int) -> int:
        """Drain the oldest entry if its ready time has passed.

        Returns the drained line address, or ``-1`` if nothing is ready.
        """
        ready = self._head_ready
        if ready < 0 or ready > now:
            return -1
        fifo = self._fifo
        line_addr = fifo.popitem(last=False)[0]
        self._head_ready = next(iter(fifo.values())) if fifo else -1
        self.stats.drains += 1
        return line_addr

    def note_full_stall(self, cycles: int) -> None:
        """Record a store stalled ``cycles`` waiting for buffer space."""
        self.stats.full_stalls += 1
        self.stats.full_stall_cycles += cycles

    def pending_lines(self) -> list:
        """Snapshot of buffered line addresses in drain order."""
        return list(self._fifo.keys())

    def clear(self) -> None:
        """Drop all pending entries (tests only)."""
        self._fifo.clear()
        self._head_ready = -1
