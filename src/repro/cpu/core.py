"""Simplified out-of-order core timing model.

The paper simulates Alpha-21264-class cores in SESC.  For the leakage
study what matters is how much of each *extra* L2 miss (decay-induced) the
core can hide; we model this with a per-access overlap budget:

* compute gaps retire at ``issue_width`` instructions/cycle;
* a load's visible stall is ``max(0, latency - overlap(ilp_class))`` —
  dependent (pointer-chase) loads expose almost the full miss, streaming
  loads hide most of it, mirroring how an OoO window behaves;
* stores retire into the write buffer (1 cycle) and only stall when the
  buffer is full;
* a full L1 MSHR file stalls the core until an entry frees (structural
  memory-level-parallelism limit, as in the real machine).

The core exposes ``next_time`` — the global cycle at which its next memory
event occurs — so the simulator can interleave the four cores in exact
global-time order (one-record lookahead).

Event-time contract (relied on by the simulator's next-event heap):

* while ``state == RUNNING``, ``next_time`` is finite and only changes
  inside :meth:`Core.step` / :meth:`Core.release_barrier` — never behind
  the simulator's back;
* every :meth:`Core.step` strictly increases ``next_time`` (each access
  costs at least one cycle), so a heap entry whose time no longer equals
  the core's ``next_time`` is provably stale;
* a non-RUNNING core's ``next_time`` is ``INFINITY`` and the core emits
  no events until :meth:`Core.release_barrier` re-arms it.

Fused L1 fast path: :meth:`Core.step` indexes the L1's flat columns
(residency map, state bytearray, LRU stamp column, write-buffer FIFO)
directly for the two dominant cases — a load that hits the L1, and a
store the write buffer absorbs without stalling — performing exactly the
column writes and counter increments the full `L1Cache.load`/`store`
paths would, with no method dispatch and no result-tuple allocation.
Equivalence notes for the deliberate deviations:

* the fused load hit skips ``mshr.release_until``: MSHR state is only
  *read* on the miss path, which re-releases at its own (later) time
  before any query, so deferring the lazy retirement is unobservable;
* the fused store skips the ``head_ready_time`` before/after comparison:
  a non-stalling insert moves the drain head iff the buffer was empty.

Everything else (barriers, misses, stalls, non-LRU L1 policies) falls
back to the original monomorphic-but-dispatched paths unchanged.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..hierarchy.l1 import L1Cache
from ..sim.config import CMPConfig
from ..sim.stats import CoreStats
from ..workloads.trace import FLAG_BARRIER, FLAG_WRITE, ILP_MASK, ILP_SHIFT, Record

INFINITY = float("inf")

#: Core run states.
RUNNING = 0
AT_BARRIER = 1
DONE = 2

_FLAG_SLOW = FLAG_WRITE | FLAG_BARRIER


class Core:
    """One CPU core consuming a workload stream."""

    def __init__(
        self,
        core_id: int,
        cfg: CMPConfig,
        l1: L1Cache,
        trace: Iterator[Record],
    ) -> None:
        self.core_id = core_id
        self.cfg = cfg
        self.l1 = l1
        self.trace = trace
        self.stats = CoreStats()

        self.cycle = 0
        self.state = RUNNING
        self.accesses_done = 0
        self.barrier_arrival = 0
        self._base_cycle = 0          # warmup rebase point
        self._base_instructions = 0
        self._issue_acc = 0           # sub-cycle accumulation of gap issue

        ccfg = cfg.core
        self._issue_width = ccfg.issue_width
        self._overlap = (
            ccfg.overlap_dependent,
            ccfg.overlap_moderate,
            ccfg.overlap_streaming,
        )
        self._line_shift = cfg.l1.line_bytes.bit_length() - 1

        # Fused-path column bindings (see module docstring).  The L1's
        # residency map / state column / FIFO objects are mutated in place
        # and never replaced, so binding them once here is safe; the LRU
        # policy is None when the L1 runs a different replacement policy,
        # which disables the fused paths entirely.
        self._l1_map = l1.line_to_frame
        self._l1_state = l1.state_col
        self._l1_lru = l1.lru
        self._l1_hit_latency = l1.hit_latency
        self._wb = l1.write_buffer
        self._wb_fifo = l1.write_buffer._fifo
        self._wb_capacity = l1.write_buffer.capacity
        self._wb_drain_latency = l1.write_buffer.drain_latency

        # one-record lookahead
        self._pending: Optional[Record] = None
        self.next_time: float = 0
        self._fetch()

        # per-interval instruction counts (transient thermal model)
        self._sample_interval = cfg.sample_interval
        self._instr_buckets: list = []

    @property
    def runnable(self) -> bool:
        """True while this core will emit further timed events."""
        return self.state == RUNNING

    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        """Pull the next record and compute when its memory op issues."""
        rec = next(self.trace, None)
        if rec is None:
            self.state = DONE
            self._pending = None
            self.next_time = INFINITY
            return
        gap = rec[0]
        self._issue_acc += gap
        adv = self._issue_acc // self._issue_width
        self._issue_acc -= adv * self._issue_width
        self._pending = rec
        self.next_time = self.cycle + adv

    # ------------------------------------------------------------------
    def step(self) -> int:
        """Execute the pending record; returns the resulting run state."""
        rec = self._pending
        assert rec is not None and self.state == RUNNING
        gap, addr, flags = rec
        st = self.stats
        cycle = self.cycle = int(self.next_time)

        lru = self._l1_lru
        if lru is not None and not (flags & _FLAG_SLOW):
            # ---- fused L1 load path -----------------------------------
            st.instructions += gap + 1
            if self._sample_interval:
                self._bump_sample(cycle, gap + 1)
            line_addr = addr >> self._line_shift
            st.loads += 1
            frame = self._l1_map.get(line_addr, -1)
            if frame >= 0 and self._l1_state[frame]:
                # L1 hit: stamp the LRU column, charge the hit latency.
                ns = lru.next_stamp
                lru.stamp[frame] = ns
                lru.next_stamp = ns + 1
                hit_latency = self._l1_hit_latency
                lst = self.l1.stats
                lst.loads += 1
                lst.load_hits += 1
                lst.load_latency_sum += hit_latency
                exposed = hit_latency - self._overlap[(flags >> ILP_SHIFT) & ILP_MASK]
                if exposed > 0:
                    st.exposed_memory_cycles += exposed
                    self.cycle = cycle + 1 + exposed
                else:
                    self.cycle = cycle + 1
            else:
                latency, mshr_stall = self.l1.load(line_addr, cycle)
                exposed = latency - self._overlap[(flags >> ILP_SHIFT) & ILP_MASK]
                if exposed < 0:
                    exposed = 0
                st.exposed_memory_cycles += exposed
                st.mshr_stall_cycles += mshr_stall
                self.cycle = cycle + 1 + mshr_stall + exposed
            self.accesses_done += 1
            self._fetch()
            return self.state

        if flags & FLAG_BARRIER:
            st.instructions += gap
            st.barriers += 1
            self.state = AT_BARRIER
            self.barrier_arrival = cycle
            self.next_time = INFINITY
            return AT_BARRIER

        st.instructions += gap + 1
        if self._sample_interval:
            self._bump_sample(cycle, gap + 1)
        line_addr = addr >> self._line_shift

        if flags & FLAG_WRITE:
            st.stores += 1
            fifo = self._wb_fifo
            if lru is not None and (line_addr in fifo or len(fifo) < self._wb_capacity):
                # ---- fused store path: buffer absorbs it, no stall ----
                l1 = self.l1
                lst = l1.stats
                lst.stores += 1
                frame = self._l1_map.get(line_addr, -1)
                if frame >= 0 and self._l1_state[frame]:
                    lst.store_hits += 1  # write-through also updates the L1 copy
                    ns = lru.next_stamp
                    lru.stamp[frame] = ns
                    lru.next_stamp = ns + 1
                wst = self._wb.stats
                if line_addr in fifo:
                    wst.coalesced += 1
                else:
                    ready = cycle + self._wb_drain_latency
                    if not fifo:
                        # new head: the drain deadline moved
                        l1.drain_dirty = True
                        self._wb._head_ready = ready
                    fifo[line_addr] = ready
                wst.inserts += 1
                self.cycle = cycle + 1
            else:
                _, stall = self.l1.store(line_addr, cycle)
                st.wb_full_stall_cycles += stall
                self.cycle = cycle + 1 + stall
        else:
            st.loads += 1
            latency, mshr_stall = self.l1.load(line_addr, cycle)
            overlap = self._overlap[(flags >> ILP_SHIFT) & ILP_MASK]
            exposed = latency - overlap
            if exposed < 0:
                exposed = 0
            st.exposed_memory_cycles += exposed
            st.mshr_stall_cycles += mshr_stall
            self.cycle = cycle + 1 + mshr_stall + exposed

        self.accesses_done += 1
        self._fetch()
        return self.state

    # ------------------------------------------------------------------
    def release_barrier(self, release_time: int) -> None:
        """Resume after a barrier whose last participant arrived earlier."""
        assert self.state == AT_BARRIER
        wait = release_time - self.barrier_arrival
        self.stats.barrier_wait_cycles += max(0, wait)
        self.cycle = release_time
        self.state = RUNNING
        self._fetch()

    # ------------------------------------------------------------------
    def rebase_stats(self) -> None:
        """Warmup boundary: restart instruction/cycle accounting."""
        self.stats = CoreStats()
        self._base_cycle = self.cycle
        self._instr_buckets = []

    def finalize_stats(self) -> None:
        """Publish cycle counts into the stats object."""
        self.stats.cycles = self.cycle - self._base_cycle

    # ------------------------------------------------------------------
    def _bump_sample(self, now: int, n_instr: int) -> None:
        bucket = now // self._sample_interval
        buckets = self._instr_buckets
        while len(buckets) <= bucket:
            buckets.append(0)
        buckets[bucket] += n_instr

    def instr_buckets(self) -> list:
        """Per-interval instruction counts (transient thermal model)."""
        return list(self._instr_buckets)
