"""Tag/state array for a set-associative cache, laid out struct-of-arrays.

:class:`CacheArray` stores, per line frame, a tag (full line address) and an
integer state code.  It is deliberately policy-agnostic: the same array backs
the write-through L1 (states VALID/INVALID) and the MESI L2 (states
I/S/E/M/OFF/TC/TD).  Coherence logic and leakage policies layer their own
metadata on top, indexed by the *frame index* ``set * assoc + way``.

Performance notes (hot path): residency is one cache-wide dict
``line_addr -> frame`` (a line maps to exactly one set, so per-set tables
buy nothing and cost a set-index computation per probe); states live in a
flat ``bytearray`` column and tags in a flat list of ints.  Python lists
are used for the integer columns deliberately: ``array('q')`` re-boxes an
``int`` object on every subscript, which measures ~30% slower than a list
on the read-dominated access path — the struct-of-arrays win here is the
*indexing discipline* (parallel columns, one frame index), not the C
element width.  Callers on the per-access path bind the columns
(``array.state``, ``array.tags``, ``array.line_to_frame``) to locals.

Free-frame stacks: an exact-LRU array whose frames start gated
(``empty_state`` other than INVALID — every L2 of a Gated-Vdd technique)
keeps, per set, a stack of its empty frames, so a refill finds its victim
in O(1) instead of a ``min`` over the set's stamps.  The stack yields the
very frame ``min(stamp)`` would: every empty frame's stamp is below every
live one (the reset ramp is ``0 .. assoc-1``, references draw from a
counter starting at ``assoc``, invalidations count down from ``-1``), so
the most recent eviction comes first, then the never-used ways from the
highest way down.  The stacks are singly linked through two ``array('i')``
columns (``free_top`` per set, ``_free_next`` per frame) — frame numbers
only, 4 bytes a frame.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .geometry import CacheGeometry
from .replacement import LRUPolicy, ReplacementPolicy, make_policy

#: State code shared by every user of CacheArray for "no line present".
INVALID = 0


class CacheArray:
    """Tags + integer states + replacement bookkeeping for one cache.

    Parameters
    ----------
    geometry:
        The cache geometry.
    policy:
        Replacement policy name (``lru``, ``tree-plru``, ``random``) or an
        already-constructed :class:`ReplacementPolicy`.
    empty_state:
        State code of every frame at reset.  A code other than INVALID
        (a gated state) makes an exact-LRU array keep free-frame stacks.
    """

    __slots__ = (
        "geom",
        "tags",
        "state",
        "state_census",
        "repl",
        "lru",
        "line_to_frame",
        "free_top",
        "_free_next",
        "_assoc",
        "_set_mask",
    )

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str | ReplacementPolicy = "lru",
        empty_state: int = INVALID,
    ) -> None:
        self.geom = geometry
        n = geometry.n_lines
        assoc = geometry.assoc
        #: flat tag column; -1 marks an empty frame
        self.tags: List[int] = [-1] * n
        #: flat state column (codes fit a byte; ``empty_state`` at reset)
        self.state = bytearray([empty_state]) * n
        #: frames currently in each state code — maintained by
        #: install/evict/set_state so per-state population queries are
        #: O(1) (clients use it to skip e.g. transient-state victim
        #: filtering when no frame is transient)
        self.state_census = [0] * 256
        self.state_census[empty_state] = n
        if isinstance(policy, str):
            policy = make_policy(policy, geometry.n_sets, geometry.assoc)
        self.repl: ReplacementPolicy = policy
        #: the LRU policy when active, else None — fused fast paths branch
        #: on this to inline the one-slot stamp write
        # exact-type gate, not isinstance: a subclass overriding the
        # recency hooks must never be hijacked by the inlined stamp
        # writes (same discipline as repro.core.policy.fast_touch_kind)
        self.lru: Optional[LRUPolicy] = (
            policy if type(policy) is LRUPolicy else None
        )
        #: cache-wide residency map (line_addr -> frame)
        self.line_to_frame: Dict[int, int] = {}
        self._assoc = assoc
        self._set_mask = geometry.n_sets - 1
        #: per-set top of the free-frame stack (-1: no empty frame), or
        #: None when the array keeps no stacks (see the module docstring)
        self.free_top: Optional[array] = None
        self._free_next: Optional[array] = None
        if empty_state != INVALID and self.lru is not None:
            # Way assoc-1 (stamp 0) on top, linked down to way 0.
            self.free_top = array("i", range(assoc - 1, n, assoc))
            nxt = array("i", range(-1, n - 1))
            nxt[::assoc] = array("i", [-1]) * geometry.n_sets
            self._free_next = nxt

    # ------------------------------------------------------------------
    # Basic indexing
    # ------------------------------------------------------------------
    def frame_index(self, set_idx: int, way: int) -> int:
        """Flat frame index of (set, way)."""
        return set_idx * self._assoc + way

    def set_of_frame(self, frame: int) -> int:
        """Set index owning ``frame``."""
        return frame // self._assoc

    def way_of_frame(self, frame: int) -> int:
        """Way of ``frame`` within its set."""
        return frame % self._assoc

    # ------------------------------------------------------------------
    # Lookup / probe
    # ------------------------------------------------------------------
    def probe(self, line_addr: int) -> int:
        """Return the frame holding ``line_addr`` or ``-1``.  No side effects."""
        return self.line_to_frame.get(line_addr, -1)

    def touch(self, frame: int) -> None:
        """Record a reference to the line in ``frame`` (never an empty frame)."""
        lru = self.lru
        if lru is not None:
            ns = lru.next_stamp
            lru.stamp[frame] = ns
            lru.next_stamp = ns + 1
        else:
            self.repl.on_access(frame // self._assoc, frame % self._assoc)

    def lookup(self, line_addr: int) -> int:
        """Probe and, on hit, update recency.  Returns frame or ``-1``."""
        frame = self.line_to_frame.get(line_addr, -1)
        if frame >= 0:
            self.touch(frame)
        return frame

    # ------------------------------------------------------------------
    # Allocation / eviction
    # ------------------------------------------------------------------
    def choose_victim(
        self, line_addr: int, blocked: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Pick a victim frame in the set of ``line_addr``.

        Prefers an empty (INVALID-state) frame; otherwise the top of the
        set's free-frame stack when the array keeps one; otherwise asks
        the replacement policy.  ``blocked(frame)`` excludes frames (e.g.
        lines in transient coherence states).  Returns ``-1`` when
        everything is blocked.  Never changes the array.
        """
        set_idx = line_addr & self._set_mask
        base = set_idx * self._assoc
        # The empty scan can only succeed when some frame is INVALID, and
        # the census knows that in O(1) — a warm cache (or a gated-OFF
        # decay cache) skips the scan entirely.
        if self.state_census[INVALID]:
            state = self.state
            tags = self.tags
            for way in range(self._assoc):
                frame = base + way
                if state[frame] == INVALID and tags[frame] == -1:
                    if blocked is None or not blocked(frame):
                        return frame
        free_top = self.free_top
        if free_top is not None:
            # The stack top is the set's smallest stamp: the frame the
            # policy's min() below would pick.
            frame = free_top[set_idx]
            if frame >= 0 and (blocked is None or not blocked(frame)):
                return frame
        if blocked is None:
            way = self.repl.victim(set_idx)
        else:
            way = self.repl.victim(set_idx, lambda w: blocked(base + w))
        return -1 if way < 0 else base + way

    def install(self, line_addr: int, frame: int, state: int) -> Tuple[int, int]:
        """Install ``line_addr`` into ``frame`` with ``state``.

        Returns ``(evicted_line_addr, evicted_state)`` where the address is
        ``-1`` if the frame was empty.  The caller is responsible for any
        writeback or coherence action implied by the evicted state.
        """
        tags = self.tags
        line_map = self.line_to_frame
        old_tag = tags[frame]
        old_state = self.state[frame]
        if old_tag != -1:
            del line_map[old_tag]
        elif self.free_top is not None:
            self._unfree(frame)
        tags[frame] = line_addr
        self.state[frame] = state
        census = self.state_census
        census[old_state] -= 1
        census[state] += 1
        line_map[line_addr] = frame
        lru = self.lru
        if lru is not None:
            ns = lru.next_stamp
            lru.stamp[frame] = ns
            lru.next_stamp = ns + 1
        else:
            self.repl.on_fill(frame // self._assoc, frame % self._assoc)
        return (old_tag, old_state)

    def evict(self, frame: int, state: int = INVALID) -> Tuple[int, int]:
        """Remove the line in ``frame``; return its (tag, state).

        The emptied frame takes ``state``: INVALID, or a gated code, so a
        turn-off is one call and one census update.
        """
        old_tag = self.tags[frame]
        old_state = self.state[frame]
        if old_tag != -1:
            del self.line_to_frame[old_tag]
            self.tags[frame] = -1
        self.state[frame] = state
        census = self.state_census
        census[old_state] -= 1
        census[state] += 1
        lru = self.lru
        if lru is not None:
            ds = lru._demote_stamp
            lru.stamp[frame] = ds
            lru._demote_stamp = ds - 1
            free_top = self.free_top
            if free_top is not None:
                # The demoted frame now has the set's smallest stamp.
                if old_tag == -1:
                    self._unfree(frame)
                set_idx = frame // self._assoc
                self._free_next[frame] = free_top[set_idx]
                free_top[set_idx] = frame
        else:
            self.repl.on_invalidate(frame // self._assoc, frame % self._assoc)
        return (old_tag, old_state)

    def _unfree(self, frame: int) -> None:
        """Take the empty ``frame`` off its set's free-frame stack."""
        free_top = self.free_top
        nxt = self._free_next
        set_idx = frame // self._assoc
        prev = -1
        cur = free_top[set_idx]
        while cur != frame:
            if cur < 0:
                raise AssertionError(f"empty frame {frame} missing from its stack")
            prev = cur
            cur = nxt[cur]
        if prev < 0:
            free_top[set_idx] = nxt[frame]
        else:
            nxt[prev] = nxt[frame]

    def free_frames(self, set_idx: int) -> List[int]:
        """Set ``set_idx``'s free-frame stack, top first (tests)."""
        stack: List[int] = []
        if self.free_top is not None:
            frame = self.free_top[set_idx]
            while frame >= 0 and len(stack) <= self._assoc:
                stack.append(frame)
                frame = self._free_next[frame]
        return stack

    def set_state(self, frame: int, state: int) -> None:
        """Overwrite the state code of ``frame`` (tag unchanged)."""
        census = self.state_census
        census[self.state[frame]] -= 1
        census[state] += 1
        self.state[frame] = state

    # ------------------------------------------------------------------
    # Introspection (tests, stats, debugging)
    # ------------------------------------------------------------------
    def tag_of(self, frame: int) -> int:
        """Line address stored in ``frame`` (-1 when empty)."""
        return self.tags[frame]

    def state_of(self, frame: int) -> int:
        """State code of ``frame``."""
        return self.state[frame]

    def resident_lines(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(frame, line_addr, state)`` for every non-empty frame."""
        tags = self.tags
        state = self.state
        for frame in range(len(tags)):
            if tags[frame] != -1:
                yield frame, tags[frame], state[frame]

    def count_in_state(self, state_code: int) -> int:
        """Number of frames currently in ``state_code`` (O(1), via census)."""
        return self.state_census[state_code]

    def check_integrity(self) -> None:
        """Internal consistency check used by the test-suite.

        Verifies the residency map agrees with the tag column, that no
        line address appears twice, the state census, and that each
        free-frame stack holds exactly its set's empty frames in
        ascending-stamp order.
        """
        assoc = self._assoc
        for line_addr, frame in self.line_to_frame.items():
            if self.tags[frame] != line_addr:
                raise AssertionError(
                    f"lookup says frame {frame} holds {line_addr:#x} but tag "
                    f"array says {self.tags[frame]:#x}"
                )
            if (line_addr & self._set_mask) != frame // assoc:
                raise AssertionError(
                    f"line {line_addr:#x} indexed into wrong set {frame // assoc}"
                )
        n_tags = sum(1 for t in self.tags if t != -1)
        if n_tags != len(self.line_to_frame):
            raise AssertionError(
                f"tag array has {n_tags} lines but lookup has "
                f"{len(self.line_to_frame)}"
            )
        census = self.state_census
        # Check every code that is present OR claims population, so a
        # stale nonzero census entry for a vanished code cannot hide.
        for code in set(self.state) | {c for c in range(256) if census[c]}:
            actual = sum(1 for s in self.state if s == code)
            if census[code] != actual:
                raise AssertionError(
                    f"state census says {census[code]} frames in state "
                    f"{code} but the column holds {actual}"
                )
        if self.free_top is None:
            return
        stamp = self.lru.stamp
        for set_idx in range(self.geom.n_sets):
            base = set_idx * assoc
            stack = self.free_frames(set_idx)
            empty = sorted(
                (f for f in range(base, base + assoc) if self.tags[f] == -1),
                key=stamp.__getitem__,
            )
            if stack != empty:
                raise AssertionError(
                    f"set {set_idx}: free-frame stack {stack} but its empty "
                    f"frames in stamp order are {empty}"
                )
            live = [stamp[f] for f in range(base, base + assoc) if self.tags[f] != -1]
            if empty and live and stamp[empty[-1]] >= min(live):
                raise AssertionError(
                    f"set {set_idx}: empty frame {empty[-1]} is stamped above "
                    f"a live frame"
                )
