"""The shared snoopy bus.

Paper §V: "Inter-processor communication develops on a high-bandwidth
shared bus (57 GB/s), pipelined and clocked at half of the core clock."

The model is a split address/data bus with FIFO arbitration:

* every transaction occupies the address/snoop slot for one bus cycle;
* data-carrying transactions (fills, writebacks, cache-to-cache flushes)
  additionally occupy the data slots for ``ceil(bytes / width)`` bus
  cycles;
* pipelining is approximated by letting a transaction's *latency* overlap
  the previous transaction's data phase, while *occupancy* (the time the
  bus is unavailable to others) is tracked exactly through ``next_free``.

All times at this interface are **core cycles**; the bus-to-core clock
ratio converts internally.  Because the simulator processes events in
global-time order, a simple ``next_free`` register implements FIFO
arbitration faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .events import BUS_FLUSH, BUS_RD, BUS_RDX, BUS_UPGR, BUS_WB, DATA_TXNS, txn_name


@dataclass
class BusConfig:
    """Shared-bus parameters.

    Defaults follow the paper: half-core-clock bus whose data path moves 32
    bytes per bus cycle — ≈48 GB/s at a 3 GHz core clock, the same order as
    the paper's 57 GB/s — one address/snoop slot per transaction, and a
    fixed snoop-response latency.
    """

    clock_ratio: int = 2          #: core cycles per bus cycle
    width_bytes: int = 32         #: data bytes moved per bus cycle
    address_cycles: int = 1       #: bus cycles for the address/snoop phase
    snoop_latency: int = 2        #: bus cycles for snoop responses to settle

    def __post_init__(self) -> None:
        if self.clock_ratio < 1 or self.width_bytes < 1 or self.address_cycles < 1:
            raise ValueError("bus parameters must be positive")

    def peak_bandwidth_bytes_per_core_cycle(self) -> float:
        """Peak data bandwidth in bytes per *core* cycle."""
        return self.width_bytes / self.clock_ratio


@dataclass
class BusStats:
    """Traffic accounting for the shared bus."""

    txn_counts: Dict[int, int] = field(default_factory=dict)
    data_bytes: int = 0
    busy_core_cycles: int = 0
    wait_core_cycles: int = 0
    transactions: int = 0

    def count(self, kind: int) -> int:
        """Transactions of ``kind`` observed so far."""
        return self.txn_counts.get(kind, 0)

    def summary(self) -> str:
        """One-line traffic summary for logs."""
        parts = [f"{txn_name(k)}={v}" for k, v in sorted(self.txn_counts.items())]
        return (
            f"txns={self.transactions} [{', '.join(parts)}] bytes={self.data_bytes} "
            f"busy={self.busy_core_cycles}cy wait={self.wait_core_cycles}cy"
        )


class SnoopyBus:
    """FIFO-arbitrated shared bus with exact occupancy accounting."""

    __slots__ = ("cfg", "stats", "next_free", "_line_bytes", "_occ", "_snoop_cycles")

    def __init__(self, cfg: BusConfig, line_bytes: int = 64) -> None:
        self.cfg = cfg
        self.stats = BusStats()
        self.next_free = 0
        self._line_bytes = line_bytes
        #: (kind, data_bytes) -> occupancy_core_cycles, filled on first use
        self._occ: Dict[Tuple[int, int], int] = {}
        self._snoop_cycles = self.snoop_response_core_cycles()

    # ------------------------------------------------------------------
    def occupancy_core_cycles(self, kind: int, data_bytes: int) -> int:
        """Core cycles the bus is held by one transaction of ``kind``."""
        cfg = self.cfg
        bus_cycles = cfg.address_cycles
        if kind in DATA_TXNS and data_bytes > 0:
            bus_cycles += -(-data_bytes // cfg.width_bytes)  # ceil div
        return bus_cycles * cfg.clock_ratio

    def snoop_response_core_cycles(self) -> int:
        """Core cycles until snoop responses settle (part of miss latency)."""
        return self.cfg.snoop_latency * self.cfg.clock_ratio

    def transact(self, now: int, kind: int, data_bytes: int = 0) -> Tuple[int, int]:
        """Arbitrate and perform one transaction.

        Parameters
        ----------
        now:
            Core cycle at which the requester asks for the bus.
        kind:
            ``BUS_RD``/``BUS_RDX``/``BUS_UPGR``/``BUS_WB``/``BUS_FLUSH``.
        data_bytes:
            Payload size; ignored for address-only transactions.

        Returns ``(grant_time, done_time)`` in core cycles.  ``done_time``
        is when the snoop/data phase of *this* transaction completes;
        the bus frees for the next requester at ``grant + occupancy``.
        """
        grant = now if now > self.next_free else self.next_free
        occ = self._occ.get((kind, data_bytes))
        if occ is None:
            occ = self._occ[kind, data_bytes] = self.occupancy_core_cycles(
                kind, data_bytes
            )
        done = grant + occ + self._snoop_cycles
        self.next_free = grant + occ

        st = self.stats
        st.transactions += 1
        st.txn_counts[kind] = st.txn_counts.get(kind, 0) + 1
        if kind in DATA_TXNS:
            st.data_bytes += data_bytes
        st.busy_core_cycles += occ
        st.wait_core_cycles += grant - now
        return grant, done

    # convenience wrappers keep call sites readable -----------------------
    def read_miss(self, now: int) -> Tuple[int, int]:
        """BusRd moving one line."""
        return self.transact(now, BUS_RD, self._line_bytes)

    def read_exclusive(self, now: int) -> Tuple[int, int]:
        """BusRdX moving one line."""
        return self.transact(now, BUS_RDX, self._line_bytes)

    def upgrade(self, now: int) -> Tuple[int, int]:
        """Address-only upgrade (S -> M invalidation broadcast)."""
        return self.transact(now, BUS_UPGR, 0)

    def writeback(self, now: int) -> Tuple[int, int]:
        """Dirty-line writeback to memory."""
        return self.transact(now, BUS_WB, self._line_bytes)

    def flush(self, now: int) -> Tuple[int, int]:
        """Cache-to-cache supply of a dirty line."""
        return self.transact(now, BUS_FLUSH, self._line_bytes)

    # ------------------------------------------------------------------
    def utilization(self, total_cycles: int) -> float:
        """Fraction of core cycles the bus was occupied."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_core_cycles / total_cycles)
