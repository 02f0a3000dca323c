"""Top-level CMP simulator: global-time interleaving of cores, drains, decay.

The engine is event-driven at memory-operation granularity.  Three event
sources exist, merged in exact global-time order:

* **cores** — each exposes ``next_time``, the cycle its next memory op (or
  barrier) issues (one-record lookahead);
* **write-buffer drains** — background L2 writes, ready at fixed delay
  after insertion, which is how write-through stores become globally
  visible;
* **decay events** — the lazy per-frame heap of
  :class:`~repro.core.decay.DecayScheduler`; all events due before the
  next core/drain action fire first, time-stamped with their exact
  deadlines, so occupancy integrals are cycle-accurate.

Core and drain events are merged through an **incremental next-event
heap** rather than a per-event scan of every core and write buffer: a
dispatched core pushes its updated ``next_time`` back (its times strictly
increase while RUNNING — see :mod:`repro.cpu.core`), and each L1 flags
drain-deadline changes in ``L1Cache.drain_dirty``, which the loop clears
and converts into heap entries.  Entries are invalidated lazily: a
popped entry whose time no longer matches its actor's current deadline
is discarded.  Heap keys ``(time, kind, index)``
with cores as kind 0 reproduce the historical scan's tie-breaking exactly
(cores before drains, lower index first), so results are bit-identical to
the O(n)-scan engine this replaced.

Barriers release when every live core has arrived and all write buffers
have drained; the release charges the configured synchronization cost.

``run`` optionally skips a warmup prefix (the paper collects statistics
"after skipping initialization") by zeroing every counter the first time
all cores have executed their warmup share of accesses.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional

from ..coherence.events import TXN_NAMES, txn_name
from ..cpu.core import AT_BARRIER, DONE, RUNNING, Core
from ..hierarchy.system import MemorySystem
from ..workloads.trace import Workload
from .config import CMPConfig
from .stats import ActivitySample, SimResult

_INF = float("inf")


class Simulator:
    """Runs one workload on one configuration."""

    def __init__(self, cfg: CMPConfig) -> None:
        self.cfg = cfg
        self.system = MemorySystem(cfg)
        self.cores: List[Core] = []

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        warmup_fraction: float = 0.0,
        max_events: Optional[int] = None,
        check_invariants_every: int = 0,
    ) -> SimResult:
        """Simulate ``workload`` to completion and return the results.

        ``warmup_fraction`` ∈ [0, 1): fraction of each core's accesses to
        execute before statistics start.  ``max_events`` is a safety valve
        for tests (raises if the event budget is exhausted).
        ``check_invariants_every``: when > 0, run the full system
        invariant suite (coherence single-writer, inclusion, occupancy
        consistency) every N events — a debugging/validation mode used by
        the test-suite; expensive, off by default.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        cfg = self.cfg
        system = self.system
        streams = workload.streams(cfg.n_cores)
        if len(streams) != cfg.n_cores:
            raise ValueError(
                f"workload provides {len(streams)} streams for {cfg.n_cores} cores"
            )
        self.cores = [
            Core(i, cfg, system.l1s[i], streams[i]) for i in range(cfg.n_cores)
        ]
        cores = self.cores
        l1s = system.l1s
        scheduler = system.scheduler
        sched_heap = scheduler._heap
        process_decay = scheduler.process_until
        fire_turn_off = system._fire_turn_off
        write_buffers = [l1.write_buffer for l1 in l1s]
        decay_enabled = cfg.technique.is_decay_based

        warmup_target = int(warmup_fraction * workload.meta.accesses_per_core)
        warmup_done = warmup_target == 0
        warmup_time = 0

        last_event_time = 0
        events = 0

        # ---- incremental next-event heap -------------------------------
        # Entries are (time, kind, index) with kind 0 = core, 1 = drain;
        # tuple order reproduces the legacy scan's tie-breaking (cores
        # before same-cycle drains, lower index first).  Stale entries are
        # skipped on pop by re-checking the actor's current deadline.
        heap: List[tuple] = []
        for i, core in enumerate(cores):
            if core.state == RUNNING:
                heappush(heap, (core.next_time, 0, i))
            if l1s[i].drain_dirty:
                l1s[i].drain_dirty = False
                dr = write_buffers[i]._head_ready
                if dr >= 0:
                    heappush(heap, (dr, 1, i))

        while True:
            events += 1
            if max_events is not None and events > max_events:
                raise RuntimeError(f"event budget exhausted ({max_events})")
            if check_invariants_every and events % check_invariants_every == 0:
                system.check_invariants()

            # ---- pop the earliest still-valid event --------------------
            actor_kind = -1  # 0=core, 1=drain
            actor_idx = -1
            t_min = _INF
            while heap:
                t, kind, idx = heap[0]
                if kind == 0:
                    core = cores[idx]
                    if core.state == RUNNING and core.next_time == t:
                        heappop(heap)
                        actor_kind, actor_idx, t_min = 0, idx, t
                        break
                elif write_buffers[idx]._head_ready == t:
                    heappop(heap)
                    actor_kind, actor_idx, t_min = 1, idx, t
                    break
                heappop(heap)  # stale: actor's deadline moved on

            if actor_kind < 0:
                # No runnable core, no pending drain: barrier or completion.
                live = [c for c in cores if c.state == AT_BARRIER]
                if not live:
                    break  # all cores DONE and buffers empty
                release = max(c.barrier_arrival for c in live) + cfg.core.barrier_cost
                if decay_enabled:
                    system.process_decay_until(release)
                for c in live:
                    c.release_barrier(release)
                    if c.state == RUNNING:
                        heappush(heap, (c.next_time, 0, c.core_id))
                last_event_time = max(last_event_time, release)
                continue

            # ---- decay events strictly before the action fire first ----
            if decay_enabled and sched_heap and sched_heap[0][0] <= t_min:
                process_decay(int(t_min), fire_turn_off)

            # ---- dispatch ----------------------------------------------
            if actor_kind == 0:
                core = cores[actor_idx]
                core.step()
                if core.state == RUNNING:
                    heappush(heap, (core.next_time, 0, actor_idx))
                if core.cycle > last_event_time:
                    last_event_time = core.cycle
            else:
                l1s[actor_idx].drain_one(int(t_min))
                if t_min > last_event_time:
                    last_event_time = int(t_min)
            # the step/drain may have moved this L1's drain deadline
            l1 = l1s[actor_idx]
            if l1.drain_dirty:
                l1.drain_dirty = False
                dr = write_buffers[actor_idx]._head_ready
                if dr >= 0:
                    heappush(heap, (dr, 1, actor_idx))

            # ---- warmup boundary ----------------------------------------
            if not warmup_done and actor_kind == 0:
                # The full scan can only succeed when the acting core
                # itself satisfies the condition (the others are unchanged
                # since the last core event), so gate on it first.
                core = cores[actor_idx]
                if (
                    core.accesses_done >= warmup_target or core.state == DONE
                ) and all(
                    c.accesses_done >= warmup_target or c.state == DONE
                    for c in cores
                ):
                    warmup_time = int(t_min)
                    system.reset_stats(warmup_time)
                    for c in cores:
                        c.rebase_stats()
                    warmup_done = True

        # ---- wind down --------------------------------------------------
        end_time = int(max(last_event_time, max(c.cycle for c in cores)))
        if decay_enabled:
            system.process_decay_until(end_time)
        system.finalize(end_time)
        for c in cores:
            c.finalize_stats()

        return self._collect(workload, end_time - warmup_time)

    # ------------------------------------------------------------------
    def _collect(self, workload: Workload, total_cycles: int) -> SimResult:
        cfg = self.cfg
        system = self.system
        res = SimResult(
            config_key=cfg.key(),
            workload_name=workload.name,
            total_cycles=max(1, total_cycles),
            n_lines_per_l2=system.l2s[0].geom.n_lines,
            l1=[l1.stats for l1 in system.l1s],
            l2=[l2.stats for l2 in system.l2s],
            cores=[c.stats for c in self.cores],
            memory=system.memory.stats,
            bus_txn_counts={
                # memoized name lookup: the TXN_NAMES table *is* txn_name's
                # mapping; going through the function re-formats the
                # fallback string on every call for unknown kinds
                TXN_NAMES.get(k) or txn_name(k): v
                for k, v in system.bus.stats.txn_counts.items()
            },
            bus_data_bytes=system.bus.stats.data_bytes,
            bus_busy_cycles=system.bus.stats.busy_core_cycles,
        )
        if cfg.technique.is_decay_based:
            res.decay_counter_resets = sum(p.counter_resets for p in system.policies)
            tick = max(1, cfg.technique.decay_cycles >> cfg.technique.counter_bits)
            res.decay_counter_ticks = (total_cycles // tick) * cfg.n_cores
        if cfg.sample_interval:
            res.samples = self._collect_samples()
        return res

    def _collect_samples(self) -> List[ActivitySample]:
        iv = self.cfg.sample_interval
        core_b = [c.instr_buckets() for c in self.cores]
        occ_b = [l2.occupancy.bucket_integrals() for l2 in self.system.l2s]
        acc_b = [l2.access_buckets() for l2 in self.system.l2s]
        # One padding pass over all bucket lists (they are private copies,
        # so in-place extension is safe), instead of rebuilding each list.
        n = max(map(len, core_b + occ_b + acc_b), default=0)
        for b in core_b + occ_b + acc_b:
            if len(b) < n:
                b.extend([0] * (n - len(b)))
        return [
            ActivitySample(
                interval=iv,
                core_instructions=[b[k] for b in core_b],
                l2_on_line_cycles=[b[k] for b in occ_b],
                l2_accesses=[b[k] for b in acc_b],
            )
            for k in range(n)
        ]


def simulate(cfg: CMPConfig, workload: Workload, **kwargs) -> SimResult:
    """One-call convenience wrapper: build a Simulator and run."""
    return Simulator(cfg).run(workload, **kwargs)
