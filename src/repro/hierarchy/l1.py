"""Private write-through L1 data cache with a coalescing write buffer.

Paper §III: "to facilitate inclusion, the L1 cache is Write-Through" and
"the primary cache uses a Write Buffer to propagate writes".  Consequences
modeled here:

* the L1 never holds dirty data — a single valid bit per line suffices;
* stores complete into the write buffer in ~1 cycle; each buffered store
  later *drains* as an L2 write (this is why "the operations on the L2 are
  mostly writes", Fig 3(b) discussion);
* store misses do **not** allocate in L1 (write-no-allocate), load misses
  do (write-allocate on reads);
* the L2 consults :meth:`has_pending_write` before gating a clean line —
  Table I's "if no pending write" condition;
* the L2 invalidates L1 lines to preserve inclusion (snoop invalidations,
  evictions, and M/clean-line turn-offs).

An MSHR file limits outstanding load misses and merges secondary misses to
a line already being fetched.

Hot-path layout: the flat columns of the backing
:class:`~repro.cache.array.CacheArray` (residency map, state bytearray,
LRU stamp column) are re-exported as attributes so the owning
:class:`~repro.cpu.core.Core` can fuse the ~90% L1-hit case into its step
loop without re-entering this module (see ``Core.step``).
"""

from __future__ import annotations

from ..cache.array import CacheArray
from ..cache.geometry import CacheGeometry
from ..cache.mshr import MSHR
from ..cache.write_buffer import WriteBuffer
from ..coherence.states import L1_VALID
from ..sim.config import CMPConfig
from ..sim.stats import L1Stats
from .l2 import PrivateL2


class L1Cache:
    """One core's private L1 data cache."""

    def __init__(self, core_id: int, cfg: CMPConfig, l2: PrivateL2) -> None:
        self.core_id = core_id
        self.cfg = cfg
        geom = CacheGeometry(
            size_bytes=cfg.l1.size_bytes,
            line_bytes=cfg.l1.line_bytes,
            assoc=cfg.l1.assoc,
        )
        self.geom = geom
        self.array = CacheArray(geom, cfg.l1.policy)
        self.mshr = MSHR(cfg.core.l1_mshr_entries)
        self.write_buffer = WriteBuffer(
            cfg.core.write_buffer_entries,
            drain_latency=cfg.core.write_buffer_drain_cycles,
        )
        self.l2 = l2
        self.stats = L1Stats()
        self.hit_latency = cfg.l1.hit_latency
        #: set whenever the head drain deadline may have moved; the
        #: simulator's event loop clears it and re-posts the write
        #: buffer's head ready time (``-1``: nothing left to drain)
        self.drain_dirty = False

        # Flat-column aliases for the fused fast path in Core.step.
        self.line_to_frame = self.array.line_to_frame
        self.state_col = self.array.state
        self.lru = self.array.lru

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero counters at the warmup boundary."""
        self.stats = L1Stats()

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def load(self, line_addr: int, now: int) -> tuple:
        """Serve a load; returns ``(latency, mshr_stall_cycles)``.

        ``latency`` is the full access time (AMAT contribution);
        ``mshr_stall_cycles`` is extra structural stall charged when the
        MSHR file was full at issue.
        """
        st = self.stats
        st.loads += 1
        self.mshr.release_until(now)

        frame = self.array.lookup(line_addr)
        if frame >= 0 and self.state_col[frame] == L1_VALID:
            st.load_hits += 1
            st.load_latency_sum += self.hit_latency
            return (self.hit_latency, 0)

        st.load_misses += 1

        # Secondary miss: coalesce onto the in-flight fill.
        entry = self.mshr.outstanding(line_addr)
        if entry is not None:
            self.mshr.merge(line_addr)
            st.mshr_merges += 1
            latency = max(self.hit_latency, entry.complete_time - now)
            st.load_latency_sum += latency
            return (latency, 0)

        # Structural hazard: every MSHR busy with a different line.
        stall = 0
        if self.mshr.is_full():
            free_at = self.mshr.earliest_completion()
            stall = max(0, free_at - now)
            self.mshr.note_full_stall(stall)
            now += stall
            self.mshr.release_until(now)

        l2_latency = self.l2.access(line_addr, now + self.hit_latency, False)
        latency = self.hit_latency + l2_latency
        self.mshr.allocate(line_addr, now, now + latency, is_write=False)
        self._fill(line_addr)
        st.load_latency_sum += latency
        return (latency, stall)

    def _fill(self, line_addr: int) -> None:
        """Install a line after a load miss (write-allocate on reads)."""
        st = self.stats
        frame = self.array.choose_victim(line_addr)
        victim_tag = self.array.tags[frame]
        if victim_tag != -1:
            st.evictions += 1
            self.l2.note_l1_evict(victim_tag)
        self.array.install(line_addr, frame, L1_VALID)
        st.fills += 1
        self.l2.note_l1_fill(line_addr)

    # ------------------------------------------------------------------
    # Store path (write-through, no-allocate, coalescing buffer)
    # ------------------------------------------------------------------
    def store(self, line_addr: int, now: int) -> tuple:
        """Issue a store; returns ``(latency, full_stall_cycles)``.

        The store retires into the write buffer.  When the buffer is full
        the core stalls until the oldest entry drains (performed here, on
        the caller's timeline).
        """
        st = self.stats
        st.stores += 1
        head_before = self.write_buffer.head_ready_time()

        frame = self.array.lookup(line_addr)
        if frame >= 0 and self.state_col[frame] == L1_VALID:
            st.store_hits += 1  # write-through also updates the L1 copy

        stall = 0
        if not self.write_buffer.can_accept(line_addr):
            # Stall until the head entry may drain, then push it to L2.
            head_ready = self.write_buffer.head_ready_time()
            drain_at = max(now, head_ready)
            stall = (drain_at - now) + 1
            self.write_buffer.note_full_stall(stall)
            drained = self.write_buffer.pop_ready(drain_at)
            assert drained >= 0, "full buffer must have a drainable head"
            self.l2.access(drained, drain_at, True)

        self.write_buffer.insert(line_addr, now + stall)
        if self.write_buffer.head_ready_time() != head_before:
            self.drain_dirty = True
        return (1, stall)

    # ------------------------------------------------------------------
    # Background drain (driven by the simulator's global loop)
    # ------------------------------------------------------------------
    def next_drain_time(self) -> int:
        """Ready time of the oldest buffered store; ``-1`` when empty."""
        return self.write_buffer.head_ready_time()

    def drain_one(self, now: int) -> bool:
        """Drain the oldest ready entry into the L2; True if one drained."""
        line_addr = self.write_buffer.pop_ready(now)
        if line_addr < 0:
            return False
        self.drain_dirty = True
        self.l2.access(line_addr, now, True)
        return True

    def has_pending_write(self, line_addr: int) -> bool:
        """Table I: is a buffered store to ``line_addr`` still in flight?"""
        return self.write_buffer.has_pending(line_addr)

    # ------------------------------------------------------------------
    # Inclusion (called by the local L2)
    # ------------------------------------------------------------------
    def invalidate_line(self, line_addr: int) -> bool:
        """Drop the L1 copy of ``line_addr`` (L2 gating/invalidation)."""
        frame = self.array.probe(line_addr)
        if frame < 0:
            return False
        self.array.evict(frame)
        self.stats.upper_invalidations += 1
        return True

    def holds(self, line_addr: int) -> bool:
        """True when the L1 currently holds a valid copy (tests)."""
        frame = self.array.probe(line_addr)
        return frame >= 0 and self.state_col[frame] == L1_VALID

    def check_inclusion(self) -> None:
        """Every valid L1 line must be valid in the L2 (test invariant)."""
        from ..coherence.states import is_valid as l2_valid

        for _, line_addr, state in self.array.resident_lines():
            if state != L1_VALID:
                continue
            l2_frame = self.l2.array.probe(line_addr)
            if l2_frame < 0 or not l2_valid(self.l2.array.state[l2_frame]):
                raise AssertionError(
                    f"inclusion violated: core {self.core_id} L1 holds line "
                    f"{line_addr:#x} absent from its L2"
                )
