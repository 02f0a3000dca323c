"""Protocol-level L2 tests: MESI across private caches, fills, snoops.

These drive the MemorySystem directly (no cores): ``l2.access`` for demand
traffic, checking states, inclusion bits and traffic counters.
"""

import pytest

from repro.coherence.events import BUS_RD, BUS_UPGR
from repro.coherence.states import E, I, M, OFF, S
from repro.hierarchy.l2 import PrivateL2
from tests.conftest import make_system, tiny_config


def state_of(l2, line):
    f = l2.array.probe(line)
    return l2.array.state[f] if f >= 0 else None


class TestFillStates:
    def test_read_miss_unshared_fills_e(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, now=0, is_write=False)
        assert state_of(sys.l2s[0], 0x100) == E

    def test_read_miss_shared_fills_s_and_demotes_owner(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, False)
        sys.l2s[1].access(0x100, 50, False)
        assert state_of(sys.l2s[0], 0x100) == S
        assert state_of(sys.l2s[1], 0x100) == S

    def test_write_miss_fills_m(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, True)
        assert state_of(sys.l2s[0], 0x100) == M

    def test_write_invalidates_remote_copies(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, False)
        sys.l2s[1].access(0x100, 50, True)
        assert state_of(sys.l2s[0], 0x100) in (None, I, OFF)
        assert state_of(sys.l2s[1], 0x100) == M
        assert sys.l2s[0].stats.snoop_invalidations == 1

    def test_write_hit_e_upgrades_silently(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, False)   # E
        before = sys.bus.stats.transactions
        sys.l2s[0].access(0x100, 10, True)   # E -> M, no bus txn
        assert sys.bus.stats.transactions == before
        assert state_of(sys.l2s[0], 0x100) == M

    def test_write_hit_s_broadcasts_upgrade(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, False)
        sys.l2s[1].access(0x100, 10, False)   # both S
        from repro.coherence.events import BUS_UPGR

        before = sys.bus.stats.count(BUS_UPGR)
        sys.l2s[0].access(0x100, 20, True)
        assert sys.bus.stats.count(BUS_UPGR) == before + 1
        assert state_of(sys.l2s[0], 0x100) == M
        assert state_of(sys.l2s[1], 0x100) in (None, I, OFF)


class TestDirtySharing:
    def test_remote_read_of_m_line_flushes(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, True)    # M in cache 0
        sys.l2s[1].access(0x100, 50, False)  # BusRd: flush + demote
        assert state_of(sys.l2s[0], 0x100) == S
        assert state_of(sys.l2s[1], 0x100) == S
        assert sys.l2s[0].stats.writebacks == 1      # memory picked it up
        assert sys.l2s[1].stats.cache_to_cache == 1  # supplied by sibling

    def test_remote_write_of_m_line_transfers_ownership(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x100, 0, True)
        sys.l2s[1].access(0x100, 50, True)
        assert state_of(sys.l2s[0], 0x100) in (None, I, OFF)
        assert state_of(sys.l2s[1], 0x100) == M


class TestEvictions:
    def test_dirty_eviction_writes_back(self):
        cfg = tiny_config(l2_kb=16)  # 4-way, 64 sets
        sys = make_system(cfg)
        l2 = sys.l2s[0]
        n_sets = l2.geom.n_sets
        # Fill one set beyond capacity with dirty lines.
        for k in range(5):
            l2.access(k * n_sets, k * 10, True)
        assert l2.stats.evictions == 1
        assert l2.stats.writebacks == 1
        assert sys.memory.stats.line_writes >= 1

    def test_clean_eviction_silent(self):
        sys = make_system(tiny_config(l2_kb=16))
        l2 = sys.l2s[0]
        n_sets = l2.geom.n_sets
        for k in range(5):
            l2.access(k * n_sets, k * 10, False)
        assert l2.stats.evictions == 1
        assert l2.stats.writebacks == 0


class TestLatencies:
    def test_hit_faster_than_miss(self):
        sys = make_system(tiny_config())
        l2 = sys.l2s[0]
        miss_lat = l2.access(0x200, 0, False)
        hit_lat = l2.access(0x200, 1000, False)
        assert hit_lat == l2.hit_latency
        assert miss_lat > hit_lat

    def test_cache_to_cache_faster_than_memory(self):
        sys = make_system(tiny_config())
        sys.l2s[0].access(0x300, 0, True)          # M in sibling
        lat_c2c = sys.l2s[1].access(0x300, 100, False)
        lat_mem = sys.l2s[2].access(0x999, 10_000, False)
        assert lat_c2c < lat_mem

    def test_decay_penalty_applied(self):
        base = make_system(tiny_config("baseline"))
        dec = make_system(tiny_config("decay"))
        assert dec.l2s[0].hit_latency == base.l2s[0].hit_latency + 1


class TestInvariantsAfterTraffic:
    def test_single_writer_invariant(self):
        sys = make_system(tiny_config())
        for t, (cid, line, wr) in enumerate(
            [(0, 1, True), (1, 1, False), (2, 1, True), (3, 2, False),
             (0, 2, True), (1, 2, True), (2, 1, False), (3, 1, True)]
        ):
            sys.l2s[cid].access(line, t * 100, wr)
        sys.check_invariants()

    def test_occupancy_tracker_consistent(self):
        sys = make_system(tiny_config("protocol"))
        for t, (cid, line, wr) in enumerate(
            [(0, 5, False), (1, 5, True), (0, 5, False), (2, 9, True),
             (3, 9, True), (1, 9, False)]
        ):
            sys.l2s[cid].access(line, t * 50, wr)
        for l2 in sys.l2s:
            l2.check_invariants()


@pytest.fixture
def snoop_calls(monkeypatch):
    """Cache ids of every PrivateL2.snoop call, in call order."""
    calls = []
    snoop = PrivateL2.snoop

    def counted(self, line_addr, txn, now):
        calls.append(self.cache_id)
        return snoop(self, line_addr, txn, now)

    monkeypatch.setattr(PrivateL2, "snoop", counted)
    return calls


@pytest.mark.parametrize("technique", ["baseline", "protocol"])
class TestSnoopFilter:
    """Only a sibling whose residency map holds the line is snooped."""

    def test_miss_to_an_unheld_line_snoops_nobody(self, snoop_calls, technique):
        sys = make_system(tiny_config(technique))
        sys.l2s[0].access(0x100, 0, False)
        assert snoop_calls == []
        assert state_of(sys.l2s[0], 0x100) == E
        assert [l2.stats.snoops_observed for l2 in sys.l2s] == [0, 0, 0, 0]
        assert sys.bus.stats.count(BUS_RD) == sys.bus.stats.transactions == 1

    def test_miss_snoops_the_two_holders(self, snoop_calls, technique):
        sys = make_system(tiny_config(technique))
        sys.l2s[1].access(0x100, 0, False)
        sys.l2s[2].access(0x100, 50, False)
        del snoop_calls[:]
        sys.l2s[0].access(0x100, 100, False)
        assert snoop_calls == [1, 2]
        assert state_of(sys.l2s[0], 0x100) == S
        assert [l2.stats.snoops_observed for l2 in sys.l2s] == [0, 2, 1, 0]
        assert sys.bus.stats.count(BUS_RD) == sys.bus.stats.transactions == 3

    def test_upgrade_snoops_only_the_sharer(self, snoop_calls, technique):
        sys = make_system(tiny_config(technique))
        sys.l2s[0].access(0x100, 0, False)
        sys.l2s[3].access(0x100, 50, False)  # both S
        del snoop_calls[:]
        sys.l2s[0].access(0x100, 100, True)
        assert snoop_calls == [3]
        assert state_of(sys.l2s[0], 0x100) == M
        assert state_of(sys.l2s[3], 0x100) is None
        assert sys.bus.stats.count(BUS_UPGR) == 1
        assert sys.l2s[3].stats.snoop_invalidations == 1
