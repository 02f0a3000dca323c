"""CacheArray: lookup/install/evict machinery and integrity checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import INVALID, CacheArray
from repro.cache.geometry import CacheGeometry
from repro.coherence.states import OFF, TC, TD


def small_array(sets=4, assoc=2, line=64, **kw):
    return CacheArray(CacheGeometry(sets * assoc * line, line, assoc), **kw)


def first_min_victim(a, line_addr, blocked=None):
    """The victim rule before free-frame stacks: the first INVALID empty
    way, else the first way of minimum stamp; -1 when all are blocked."""
    base = (line_addr % a.geom.n_sets) * a.geom.assoc
    ways = [f for f in range(base, base + a.geom.assoc) if not (blocked and blocked(f))]
    empty = [f for f in ways if a.state[f] == INVALID and a.tags[f] == -1]
    return (empty or [min(ways, key=a.lru.stamp.__getitem__, default=-1)])[0]


class TestProbeInstall:
    def test_probe_empty(self):
        a = small_array()
        assert a.probe(0x100) == -1

    def test_install_then_probe(self):
        a = small_array()
        frame = a.choose_victim(0x100)
        a.install(0x100, frame, state=1)
        assert a.probe(0x100) == frame
        assert a.tag_of(frame) == 0x100
        assert a.state_of(frame) == 1

    def test_install_evicts_old_tag(self):
        a = small_array(sets=1, assoc=1)
        f = a.choose_victim(0)
        a.install(0, f, 1)
        old = a.install(1, f, 2)
        assert old == (0, 1)
        assert a.probe(0) == -1
        assert a.probe(1) == f

    def test_same_set_different_tags(self):
        a = small_array(sets=4, assoc=2)
        # lines 0 and 4 map to set 0 (4 sets)
        f0 = a.choose_victim(0)
        a.install(0, f0, 1)
        f1 = a.choose_victim(4)
        a.install(4, f1, 1)
        assert f0 != f1
        assert a.set_of_frame(f0) == a.set_of_frame(f1) == 0

    def test_frame_index_roundtrip(self):
        a = small_array(sets=4, assoc=2)
        for s in range(4):
            for w in range(2):
                f = a.frame_index(s, w)
                assert a.set_of_frame(f) == s
                assert a.way_of_frame(f) == w


class TestVictimSelection:
    def test_prefers_empty_frame(self):
        a = small_array(sets=1, assoc=4)
        f = a.choose_victim(0)
        a.install(0, f, 1)
        v = a.choose_victim(1)
        assert a.tag_of(v) == -1  # empty preferred over LRU victim

    def test_lru_when_full(self):
        a = small_array(sets=1, assoc=2)
        f0 = a.choose_victim(0); a.install(0, f0, 1)
        f1 = a.choose_victim(1); a.install(1, f1, 1)
        a.lookup(0)  # make line 0 most recent
        v = a.choose_victim(2)
        assert a.tag_of(v) == 1

    def test_blocked_frames_skipped(self):
        a = small_array(sets=1, assoc=2)
        f0 = a.choose_victim(0); a.install(0, f0, 1)
        f1 = a.choose_victim(1); a.install(1, f1, 1)
        v = a.choose_victim(2, blocked=lambda f: f == f0)
        assert v == f1

    def test_all_blocked(self):
        a = small_array(sets=1, assoc=2)
        for n in range(2):
            f = a.choose_victim(n)
            a.install(n, f, 1)
        assert a.choose_victim(5, blocked=lambda f: True) == -1


class TestEvict:
    def test_evict_clears(self):
        a = small_array()
        f = a.choose_victim(0x42)
        a.install(0x42, f, 3)
        tag, state = a.evict(f)
        assert (tag, state) == (0x42, 3)
        assert a.probe(0x42) == -1
        assert a.state_of(f) == INVALID

    def test_evict_empty_frame(self):
        a = small_array()
        tag, state = a.evict(0)
        assert tag == -1

    def test_evicted_frame_becomes_preferred_victim(self):
        a = small_array(sets=1, assoc=4)
        for n in range(4):
            a.install(n, a.choose_victim(n), 1)
        a.evict(2)
        assert a.choose_victim(9) == 2


class TestIntrospection:
    def test_resident_lines(self):
        a = small_array(sets=2, assoc=2)
        a.install(0, a.choose_victim(0), 1)
        a.install(1, a.choose_victim(1), 2)
        resident = {(la, st) for _, la, st in a.resident_lines()}
        assert resident == {(0, 1), (1, 2)}

    def test_count_in_state(self):
        a = small_array(sets=2, assoc=2)
        a.install(0, a.choose_victim(0), 3)
        a.install(1, a.choose_victim(1), 3)
        a.install(2, a.choose_victim(2), 1)
        assert a.count_in_state(3) == 2
        assert a.count_in_state(1) == 1

    def test_integrity_clean(self):
        a = small_array()
        for n in range(6):
            f = a.choose_victim(n)
            a.install(n, f, 1)
        a.check_integrity()

    def test_integrity_detects_corruption(self):
        a = small_array()
        f = a.choose_victim(0)
        a.install(0, f, 1)
        a.tags[f] = 99  # corrupt behind the lookup's back
        with pytest.raises(AssertionError):
            a.check_integrity()


class TestSetStateDoesNotMoveTags:
    def test_set_state(self):
        a = small_array()
        f = a.choose_victim(7)
        a.install(7, f, 1)
        a.set_state(f, 4)
        assert a.state_of(f) == 4
        assert a.probe(7) == f


class TestFreeFrameStacks:
    def test_only_gated_lru_arrays_keep_stacks(self):
        assert small_array().free_top is None
        assert small_array(empty_state=OFF, policy="tree-plru").free_top is None
        assert small_array(empty_state=OFF).free_top is not None

    def test_gated_reset_state_and_census(self):
        a = small_array(sets=2, assoc=4, empty_state=OFF)
        assert set(a.state) == {OFF}
        assert a.count_in_state(OFF) == 8 and a.count_in_state(INVALID) == 0

    def test_stack_order_recent_eviction_then_highest_never_used_way(self):
        a = small_array(sets=1, assoc=4, empty_state=OFF)
        assert a.free_frames(0) == [3, 2, 1, 0]
        for n in range(3):  # fills ways 3, 2, 1
            a.install(n, a.choose_victim(n), 1)
        assert a.free_frames(0) == [0]
        a.evict(a.probe(0), OFF)
        a.evict(a.probe(2), OFF)
        assert a.free_frames(0) == [1, 3, 0]
        assert a.choose_victim(9) == 1
        a.check_integrity()

    def test_evict_to_off_is_one_call(self):
        a = small_array(sets=1, assoc=2, empty_state=OFF)
        f = a.choose_victim(5)
        a.install(5, f, 3)
        assert a.evict(f, OFF) == (5, 3)
        assert a.state_of(f) == OFF and a.probe(5) == -1
        assert a.count_in_state(OFF) == 2 and a.count_in_state(3) == 0

    def test_integrity_detects_a_stale_stack(self):
        a = small_array(sets=1, assoc=2, empty_state=OFF)
        a.tags[1] = 7  # fill behind the stack's back
        a.line_to_frame[7] = 1
        with pytest.raises(AssertionError, match="free-frame stack"):
            a.check_integrity()

    OPS = st.lists(
        st.tuples(
            st.sampled_from(
                ["install", "touch", "evict", "gate", "transient", "settle", "empty"]
            ),
            st.integers(0, 63),
        ),
        max_size=120,
    )

    @given(st.sampled_from([1, 2, 4, 8, 16]), st.booleans(), OPS)
    @settings(max_examples=150, deadline=None)
    def test_victim_matches_first_minimum_stamp(self, assoc, gated, ops):
        a = small_array(sets=2, assoc=assoc, empty_state=OFF if gated else INVALID)
        assert (a.free_top is not None) == gated

        def transient(f):
            return a.state[f] in (TC, TD)

        def odd(f):  # blocks empty frames too, unlike any coherence state
            return f % 2 == 1

        for kind, n in ops:
            resident = sorted(a.line_to_frame.values())
            census = a.state_census
            blocked = transient if census[TC] or census[TD] else None
            if kind == "install" and n not in a.line_to_frame:
                f = a.choose_victim(n, blocked)
                assert f == first_min_victim(a, n, blocked)
                if f >= 0:
                    a.install(n, f, 1 + n % 3)
            elif kind == "empty":  # re-evict an empty frame, to either state
                f = n % a.geom.n_lines
                if a.tags[f] == -1:
                    a.evict(f, OFF if n % 2 else INVALID)
            elif resident:
                f = resident[n % len(resident)]
                if kind == "touch":
                    a.touch(f)
                elif kind == "evict":
                    a.evict(f)
                elif kind == "gate":
                    a.evict(f, OFF)
                elif kind == "transient":
                    a.set_state(f, TC if n % 2 else TD)
                elif kind == "settle":
                    a.set_state(f, 1)
            a.check_integrity()
            for s in range(a.geom.n_sets):
                assert a.choose_victim(s) == first_min_victim(a, s)
                for rule in (transient, odd):
                    assert a.choose_victim(s, rule) == first_min_victim(a, s, rule)
