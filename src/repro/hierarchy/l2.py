"""The private, inclusive, MESI-snoopy L2 cache with leakage-policy hooks.

This module is the heart of the reproduction: it binds together the cache
substrate (:mod:`repro.cache`), the MESI+turn-off protocol
(:mod:`repro.coherence`), and the leakage policies (:mod:`repro.core`).

Responsibilities:

* demand accesses from the local L1 (read misses and write-buffer drains),
  including bus transactions, sibling snoops, fills and evictions;
* the snoop side: reacting to remote BusRd/BusRdX/BusUpgr, flushing dirty
  data, invalidating the local L1 copy (inclusion), and — for gating
  techniques — powering lines off on protocol invalidations;
* the decay turn-off path of §III/§IV: Table I pending-write checks, TC/TD
  sequencing, L1 invalidations and writebacks for Modified lines, exact
  occupancy integrals;
* decay-induced-miss attribution via per-set fill counters ("would this
  line still be resident under LRU had decay not gated it?").

Timing is expressed in core cycles; the bus/memory models add their own
queueing.  The simulator guarantees events are presented in global time
order, which lets this class use simple ``next_free`` scalars instead of a
full discrete-event engine.

Hot-path layout: :meth:`access` is monomorphic over the flat columns of
the backing :class:`~repro.cache.array.CacheArray` (residency map, state
bytearray, LRU stamp column) plus the leakage policy's ``last_touch`` /
``armed`` columns and the decay scheduler's pending-bit column, all bound
at construction.  The per-access work of a hit — recency stamp, decay
bookkeeping, scheduler ensure — is a handful of column writes with no
method dispatch; the policy's ``touch_kind`` selects which inline variant
runs (see :class:`~repro.core.policy.LeakagePolicy`).
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, List, Optional

from ..cache.array import CacheArray
from ..cache.geometry import CacheGeometry
from ..coherence.bus import SnoopyBus
from ..coherence.events import (
    A_FLUSH,
    A_WRITEBACK,
    BUS_RD,
    BUS_RDX,
    BUS_UPGR,
)
from ..coherence.mesi import MESIProtocol
from ..coherence.states import E, I, M, OFF, S, TC, TD, is_valid
from ..coherence.turnoff import TurnOffSequencer
from ..core.decay import DecayScheduler
from ..core.occupancy import OccupancyTracker
from ..core.policy import LeakagePolicy, fast_touch_kind
from ..sim.config import CMPConfig
from ..sim.stats import L2Stats
from .memory import MainMemory


class PrivateL2:
    """One core's private L2 bank."""

    def __init__(
        self,
        cache_id: int,
        cfg: CMPConfig,
        bus: SnoopyBus,
        memory: MainMemory,
        policy: LeakagePolicy,
        protocol: Optional[MESIProtocol] = None,
    ) -> None:
        self.cache_id = cache_id
        self.cfg = cfg
        geom = CacheGeometry(
            size_bytes=cfg.l2.size_bytes,
            line_bytes=cfg.l2.line_bytes,
            assoc=cfg.l2.assoc,
        )
        self.geom = geom
        # Gated-at-reset techniques park every frame in OFF.
        self.array = CacheArray(
            geom, cfg.l2.policy, empty_state=I if policy.start_powered else OFF
        )
        self.bus = bus
        self.memory = memory
        self.policy = policy
        self.protocol = protocol or MESIProtocol()
        self.sequencer = TurnOffSequencer(self.protocol)
        self.stats = L2Stats()
        self.occupancy = OccupancyTracker(
            geom.n_lines,
            start_powered=policy.start_powered,
            sample_interval=cfg.sample_interval,
        )

        #: effective access latency (decay caches pay the +1 wake/gate mux)
        self.hit_latency = cfg.l2.hit_latency + (
            cfg.l2.decay_access_penalty if cfg.technique.is_decay_based else 0
        )

        # Wired by the System after construction.
        self.siblings: List["PrivateL2"] = []
        self.l1 = None  # type: ignore[assignment]  # hierarchy.l1.L1Cache
        self.scheduler: Optional[DecayScheduler] = None

        #: inclusion bits: L1 holds a copy of the line in this frame
        self.l1_present = bytearray(geom.n_lines)
        #: decay-ghosts: line_addr -> set fill counter at gate time
        self._ghosts: Dict[int, int] = {}
        self._set_fills = [0] * geom.n_sets
        # per-interval access counts (transient thermal model)
        self._sample_interval = cfg.sample_interval
        self._access_buckets: List[int] = []

        self._line_bytes = geom.line_bytes
        self._decay_enabled = policy.decay_enabled
        self._gates_on_inval = policy.gates_on_invalidation

        # ---- flat-column bindings for the monomorphic access path ------
        # All of these alias structures that are mutated in place and
        # never replaced over the cache's lifetime.
        self._map = self.array.line_to_frame
        self._state_col = self.array.state
        self._tags = self.array.tags
        self._lru = self.array.lru
        self._free_top = self.array.free_top
        self._assoc = geom.assoc
        self._set_mask = geom.n_sets - 1
        #: inline-touch selector; -1 (virtual dispatch) for anything that
        #: is not exactly a built-in policy class
        self._pkind = fast_touch_kind(policy)
        self._pol_last_touch = getattr(policy, "last_touch", None)
        self._pol_armed = getattr(policy, "armed", None)
        # Decay-deadline constants, so the ensure fast path computes the
        # gate deadline without reaching through policy.timer per access.
        timer = policy.timer
        if timer is not None:
            self._dl_ideal = timer.mode == "ideal"
            self._dl_add = timer.decay_cycles
            self._dl_tick = timer.global_tick
            self._dl_states = timer.n_states
        else:
            self._dl_ideal = True
            self._dl_add = 0
            self._dl_tick = 1
            self._dl_states = 0
        # Siblings, scheduler and L1 columns; rebound in connect().
        self._snoop_filter: List[tuple] = []
        self._sched_pending: Optional[bytearray] = None
        self._sched_heap: Optional[list] = None
        self._l1_wb_fifo: Optional[dict] = None

    # ------------------------------------------------------------------
    # Wiring / lifecycle
    # ------------------------------------------------------------------
    def connect(self, siblings: List["PrivateL2"], l1, scheduler: DecayScheduler) -> None:
        """Attach sibling caches, the local L1 and the decay scheduler."""
        self.siblings = [s for s in siblings if s is not self]
        # A sibling's residency map is an exact snoop filter: snoop()
        # answers (False, False) for any line its map does not hold.
        self._snoop_filter = [(s._map, s) for s in self.siblings]
        self.l1 = l1
        self.scheduler = scheduler
        self._sched_pending = scheduler._pending[self.cache_id]
        self._sched_heap = scheduler._heap
        # Table I pending-write probe, inlined (the FIFO dict is mutated
        # in place and never replaced outside of tests calling clear()).
        self._l1_wb_fifo = l1.write_buffer._fifo

    def reset_stats(self, now: int) -> None:
        """Zero counters at the warmup boundary (state is preserved)."""
        self.stats = L2Stats()
        self.occupancy.rebase(now)
        self._access_buckets = []

    def finalize(self, end: int) -> None:
        """Close integrals and publish them into the stats object."""
        self.stats.on_line_cycles = self.occupancy.finalize(end)

    # ------------------------------------------------------------------
    # Demand side (called by the local L1)
    # ------------------------------------------------------------------
    def access(self, line_addr: int, now: int, is_write: bool) -> int:
        """Serve a demand access; returns total latency in core cycles."""
        st = self.stats
        if is_write:
            st.writes += 1
        else:
            st.reads += 1
        if self._sample_interval:
            self._bump_sample(now)

        frame = self._map.get(line_addr, -1)
        if frame >= 0:
            state = self._state_col[frame]
            if 1 <= state <= 3:  # S/E/M — resident and usable
                # ---- fused hit path: recency stamp + decay bookkeeping
                lru = self._lru
                if lru is not None:
                    ns = lru.next_stamp
                    lru.stamp[frame] = ns
                    lru.next_stamp = ns + 1
                else:
                    self.array.touch(frame)
                pkind = self._pkind
                if pkind == 1:  # fixed decay: touch resets and re-arms
                    self._pol_last_touch[frame] = now
                    self._pol_armed[frame] = 1
                    self.policy.counter_resets += 1
                elif pkind == 2:  # selective decay: arming is state-driven
                    self._pol_last_touch[frame] = now
                    if self._pol_armed[frame]:
                        self.policy.counter_resets += 1
                elif pkind < 0:  # non-built-in policy: generic dispatch
                    self.policy.on_touch(frame, state, now)
                if self._decay_enabled:
                    if pkind > 0:
                        pending = self._sched_pending
                        if not pending[frame] and self._pol_armed[frame]:
                            lt = self._pol_last_touch[frame]
                            if self._dl_ideal:
                                dl = lt + self._dl_add
                            else:
                                tick = self._dl_tick
                                dl = (lt // tick + self._dl_states) * tick
                            pending[frame] = 1
                            heappush(self._sched_heap, (dl, self.cache_id, frame))
                    else:
                        # custom policy: its deadline() is authoritative
                        self.scheduler.ensure(self.cache_id, frame)
                if not is_write or state == M:  # a drain into M is a plain hit
                    return self.hit_latency
                return self._write_hit(frame, state, now)

        # ---- miss ----------------------------------------------------
        if is_write:
            st.write_misses += 1
        else:
            st.read_misses += 1
        ghosts = self._ghosts
        if ghosts:
            g = ghosts.pop(line_addr, None)
            if g is not None and (
                self._set_fills[line_addr & self._set_mask] - g < self._assoc
            ):
                # Fewer fills than ways since gating: under LRU the line
                # would still be resident — this miss exists only because
                # we gated.
                st.decay_induced_misses += 1

        txn = BUS_RDX if is_write else BUS_RD
        grant, done = self.bus.transact(now, txn, self._line_bytes)

        shared = False
        supplied = False
        for sib_map, sib in self._snoop_filter:
            if line_addr in sib_map:
                had, sup = sib.snoop(line_addr, txn, grant)
                shared = shared or had
                supplied = supplied or sup

        if supplied:
            st.cache_to_cache += 1
            fill_time = done
        else:
            fill_time = self.memory.read_line(done)

        fill_state = self.protocol.fill_state(is_write, shared)
        # Architectural state (tags, states, occupancy, decay timers) is
        # updated at the *request* time: the fill completes ``fill_time -
        # now`` cycles later, but that skew (a memory latency) is orders of
        # magnitude below the decay times, and committing at ``now`` keeps
        # every occupancy/decay event in global-time order.
        self._fill(line_addr, fill_state, now)
        return self.hit_latency + (fill_time - now)

    def _write_hit(self, frame: int, state: int, now: int) -> int:
        """Write-buffer drain hitting an S or E line: obtain M rights."""
        array = self.array
        if state == E:
            array.set_state(frame, M)
            self.policy.on_state_change(frame, E, M, now)
            return self.hit_latency
        # S: broadcast an upgrade; remote sharers invalidate.
        grant, done = self.bus.upgrade(now)
        line_addr = array.tags[frame]
        for sib_map, sib in self._snoop_filter:
            if line_addr in sib_map:
                sib.snoop(line_addr, BUS_UPGR, grant)
        # Our own copy may have been gated?  No: we hold it in S and we are
        # the upgrader — state can only change via remote snoops, which are
        # serialized behind this transaction.
        array.set_state(frame, M)
        self.policy.on_state_change(frame, S, M, now)
        return self.hit_latency + (done - now)

    # ------------------------------------------------------------------
    # Fill / evict machinery
    # ------------------------------------------------------------------
    def _fill(self, line_addr: int, fill_state: int, now: int) -> None:
        array = self.array
        st = self.stats
        state_col = self._state_col
        census = array.state_census
        # A gated frame refills first: the free-frame stack's top is
        # choose_victim's answer whenever no frame is INVALID (an empty
        # frame is never transient).
        free_top = self._free_top
        if free_top is not None and not census[I]:
            frame = free_top[line_addr & self._set_mask]
        else:
            frame = -1
        if frame < 0:
            # Transient (TC/TD) frames must not be victimized; they only
            # exist when a test drives the turn-off sequencer without
            # auto-grant, so the common case passes no predicate at all
            # (bit-identical: a predicate that never blocks selects the
            # same victim).
            if census[TC] or census[TD]:
                frame = array.choose_victim(
                    line_addr, blocked=lambda f: state_col[f] in (TC, TD)
                )
            else:
                frame = array.choose_victim(line_addr)
            if frame < 0:
                raise RuntimeError("no eligible victim (all frames transient?)")

        victim_state = state_col[frame]
        victim_tag = self._tags[frame]
        pkind = self._pkind
        if victim_tag != -1:
            st.evictions += 1
            if victim_state == M:
                # Dirty eviction: post a writeback.
                self.bus.writeback(now)
                self.memory.write_line(now)
                st.writebacks += 1
            if self.l1_present[frame]:
                # Inclusion: dropping the L2 line drops the L1 copy.
                self.l1.invalidate_line(victim_tag)
                self.l1_present[frame] = 0
                st.upper_invalidations += 1
            # on_clear, inlined for the built-in policies
            if pkind > 0:
                self._pol_armed[frame] = 0
            elif pkind < 0:
                self.policy.on_clear(frame)
        if victim_state == OFF:
            self.occupancy.wake(now)
            st.wakes += 1

        array.install(line_addr, frame, fill_state)
        st.fills += 1
        self._set_fills[frame // self._assoc] += 1
        # on_fill, inlined for the built-in policies
        if pkind == 1:  # fixed decay: every fill arms
            self._pol_last_touch[frame] = now
            self._pol_armed[frame] = 1
            self.policy.counter_resets += 1
        elif pkind == 2:  # selective decay: arm only entering S/E
            self._pol_last_touch[frame] = now
            if fill_state == S or fill_state == E:
                self._pol_armed[frame] = 1
                self.policy.counter_resets += 1
            else:
                self._pol_armed[frame] = 0
        elif pkind < 0:
            self.policy.on_fill(frame, fill_state, now)
        if self._decay_enabled:
            if pkind > 0:
                pending = self._sched_pending
                if not pending[frame] and self._pol_armed[frame]:
                    lt = self._pol_last_touch[frame]
                    if self._dl_ideal:
                        dl = lt + self._dl_add
                    else:
                        tick = self._dl_tick
                        dl = (lt // tick + self._dl_states) * tick
                    pending[frame] = 1
                    heappush(self._sched_heap, (dl, self.cache_id, frame))
            else:
                # custom policy: its deadline() is authoritative
                self.scheduler.ensure(self.cache_id, frame)

    # ------------------------------------------------------------------
    # Snoop side (called by sibling caches through the bus broadcast)
    # ------------------------------------------------------------------
    def snoop(self, line_addr: int, txn: int, now: int) -> tuple:
        """React to a remote transaction; returns (had_copy, supplied_data)."""
        frame = self._map.get(line_addr, -1)
        if frame < 0:
            return (False, False)
        state = self._state_col[frame]
        if state == I or state == OFF:
            return (False, False)
        self.stats.snoops_observed += 1

        nxt, actions = self.protocol.snoop(state, txn)
        supplied = bool(actions & A_FLUSH)
        if actions & A_WRITEBACK:
            # M -> S on a remote BusRd: memory picks up the flushed line.
            self.memory.write_line(now)
            self.stats.writebacks += 1

        if nxt == state:
            return (True, supplied)

        if nxt == I:
            self._invalidate_by_protocol(frame, line_addr, now)
        else:
            self.array.set_state(frame, nxt)
            self.policy.on_state_change(frame, state, nxt, now)
            if self._decay_enabled:
                self.scheduler.ensure(self.cache_id, frame)
        return (True, supplied)

    def _invalidate_by_protocol(self, frame: int, line_addr: int, now: int) -> None:
        """Remote BusRdX/BusUpgr killed our copy; maybe gate it (§IV)."""
        st = self.stats
        st.snoop_invalidations += 1
        if self.l1_present[frame]:
            self.l1.invalidate_line(line_addr)
            self.l1_present[frame] = 0
            st.upper_invalidations += 1
        pkind = self._pkind
        if pkind > 0:
            self._pol_armed[frame] = 0
        elif pkind < 0:
            self.policy.on_clear(frame)
        if self._gates_on_inval:
            # "A cache line is switched off when a line is invalidated."
            # No ghost is recorded: the invalidation happens in the
            # baseline too, so a later miss is not technique-induced.
            self.array.evict(frame, OFF)
            self.occupancy.gate(now)
            st.gated_protocol += 1
        else:
            self.array.evict(frame)  # baseline: the frame stays powered in I

    # ------------------------------------------------------------------
    # Decay turn-off path (called by the DecayScheduler)
    # ------------------------------------------------------------------
    def turn_off_frame(self, frame: int, gate_time: int) -> bool:
        """Raise the turn-off signal on ``frame`` at ``gate_time``.

        Returns True when the line was gated.  Implements §III: Table I
        pending-write denial, TC/TD sequencing with upper-level
        invalidation, and the memory writeback for Modified lines.  The
        stationary-state decisions of
        :meth:`~repro.coherence.turnoff.TurnOffSequencer.initiate` are
        inlined here (S/E: gate unless a write is pending; M: gate with
        writeback; the transient-defer rule cannot trigger because the
        timing simulator resolves transients atomically) — the sequencer
        object remains the reference implementation for protocol tests.
        """
        array = self.array
        state = self._state_col[frame]
        if not 1 <= state <= 3:  # not S/E/M (is_valid, inlined)
            return False  # stale event: line was invalidated/evicted already
        line_addr = self._tags[frame]
        st = self.stats

        if state == M:
            writeback = True
        else:
            # S/E: Table I "if no pending write" — the imminent drain
            # would touch the line and re-arm its timer.
            if line_addr in self._l1_wb_fifo:
                st.gate_denied_pending += 1
                return False
            writeback = False

        if self.l1_present[frame]:
            self.l1.invalidate_line(line_addr)
            st.upper_invalidations += 1
            self.l1_present[frame] = 0

        if writeback:
            # TD: flush the dirty line to memory over the shared bus.
            self.bus.writeback(gate_time)
            self.memory.write_line(gate_time)
            st.writebacks += 1
            st.gated_decay_dirty += 1
        else:
            st.gated_decay_clean += 1

        # Record a ghost so a future miss to this address can be attributed
        # to decay iff the line would still be resident under LRU.
        self._ghosts[line_addr] = self._set_fills[frame // self._assoc]

        pkind = self._pkind
        if pkind > 0:  # on_clear, inlined (only decay policies gate here)
            self._pol_armed[frame] = 0
        elif pkind < 0:
            self.policy.on_clear(frame)
        array.evict(frame, OFF)
        self.occupancy.gate(gate_time)
        return True

    # ------------------------------------------------------------------
    # L1 bookkeeping (inclusion bits)
    # ------------------------------------------------------------------
    def note_l1_fill(self, line_addr: int) -> None:
        """L1 installed a copy of ``line_addr``."""
        frame = self._map.get(line_addr, -1)
        if frame < 0:
            raise RuntimeError(
                f"inclusion violation: L1 filled line {line_addr:#x} that is "
                f"not resident in L2 {self.cache_id}"
            )
        self.l1_present[frame] = 1

    def note_l1_evict(self, line_addr: int) -> None:
        """L1 dropped its copy of ``line_addr`` (replacement)."""
        frame = self._map.get(line_addr, -1)
        if frame >= 0:
            self.l1_present[frame] = 0

    # ------------------------------------------------------------------
    # Sampling / invariants
    # ------------------------------------------------------------------
    def _bump_sample(self, now: int) -> None:
        bucket = now // self._sample_interval
        buckets = self._access_buckets
        while len(buckets) <= bucket:
            buckets.append(0)
        buckets[bucket] += 1

    def access_buckets(self) -> List[int]:
        """Per-interval access counts (transient thermal model)."""
        return list(self._access_buckets)

    def check_invariants(self) -> None:
        """Structural invariants, used heavily by the test-suite.

        * the tag array and lookup dicts agree;
        * powered-line count matches the occupancy tracker;
        * every frame with the inclusion bit set holds a valid line.
        """
        self.array.check_integrity()
        powered = sum(1 for s in self.array.state if s != OFF)
        if powered != self.occupancy.on_lines:
            raise AssertionError(
                f"L2 {self.cache_id}: {powered} powered frames but tracker "
                f"says {self.occupancy.on_lines}"
            )
        for frame in range(self.geom.n_lines):
            if self.l1_present[frame] and not is_valid(self.array.state[frame]):
                raise AssertionError(
                    f"L2 {self.cache_id} frame {frame}: inclusion bit set on "
                    f"an invalid line"
                )
