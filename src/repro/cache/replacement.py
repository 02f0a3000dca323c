"""Replacement policies over flat struct-of-arrays recency state.

The simulator's hot path keeps per-frame recency *columns* owned by the
policy object.  Three policies are provided:

* :class:`LRUPolicy` — true least-recently-used (matches SESC's L2 default),
  implemented as one flat stamp column (`stamp[frame]`) plus a monotonic
  counter: a reference writes one list slot, instead of the list
  ``remove``/``insert`` pair of the object-per-set design this replaced.
* :class:`TreePLRUPolicy` — tree pseudo-LRU, the usual hardware
  approximation for higher associativities; direction bits live in one
  flat ``bytearray``.
* :class:`RandomPolicy` — seeded pseudo-random victim selection.

All policies speak *way indices* within a set; the cache array is
responsible for mapping ways to line frames.  A policy never sees
addresses, which keeps it reusable for both L1 and L2 arrays.

Victim choice can be constrained by a ``blocked`` predicate (e.g. lines in
a transient coherence state must not be evicted); the policy then returns
the best non-blocked way, or ``-1`` when every way is blocked.

Hot-path contract (relied on by :mod:`repro.cache.array`,
:mod:`repro.hierarchy` and :mod:`repro.cpu.core`): for :class:`LRUPolicy`,
recording a reference to frame ``f`` is exactly::

    ns = lru.next_stamp
    lru.stamp[f] = ns
    lru.next_stamp = ns + 1

which fused fast paths inline instead of dispatching ``on_access``.
Victim order is the ascending-stamp order of the set's ways; stamps are
unique (the counter is monotonic and invalidations draw from a disjoint,
descending negative counter), so the order reproduces the recency-list
semantics of the previous implementation bit for bit.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional


class ReplacementPolicy:
    """Interface for replacement policies.

    Sub-classes maintain whatever per-set state they need, sized at
    construction from ``n_sets``/``assoc``.
    """

    name = "abstract"

    def __init__(self, n_sets: int, assoc: int) -> None:
        self.n_sets = n_sets
        self.assoc = assoc

    def on_access(self, set_idx: int, way: int) -> None:
        """Record a reference to ``way`` of set ``set_idx``."""
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int) -> None:
        """Record the allocation of ``way`` (treated as a reference)."""
        self.on_access(set_idx, way)

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """Demote ``way`` so it becomes the preferred victim."""
        raise NotImplementedError

    def victim(
        self, set_idx: int, blocked: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Choose a victim way for ``set_idx``.

        ``blocked(way)`` returning True excludes that way.  Returns ``-1``
        when no way is eligible.
        """
        raise NotImplementedError

    def recency_order(self, set_idx: int) -> List[int]:
        """Ways ordered most-recently-used first (for tests/debugging)."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True LRU via one flat per-frame stamp column.

    ``stamp[set * assoc + way]`` holds the stamp of the way's most recent
    event: references draw increasing positive values from ``next_stamp``,
    invalidations draw decreasing negative values from ``_demote_stamp``,
    and each set starts with the descending ramp ``assoc-1 .. 0`` (way 0
    most recent).  Within a set all stamps are distinct, so ascending
    stamp order *is* the recency-list order (victim = smallest stamp) of
    the per-set list implementation this replaced — including after any
    interleaving of accesses and invalidations.
    """

    name = "lru"

    def __init__(self, n_sets: int, assoc: int) -> None:
        super().__init__(n_sets, assoc)
        # Flat stamp column: each set starts with way 0 most recent.
        self.stamp: List[int] = [
            assoc - 1 - w for _ in range(n_sets) for w in range(assoc)
        ]
        #: next reference stamp (strictly above every stamp ever issued)
        self.next_stamp = assoc
        #: next invalidation stamp (strictly below every stamp ever issued)
        self._demote_stamp = -1

    def on_access(self, set_idx: int, way: int) -> None:
        """Stamp ``way`` with the next (highest) reference stamp."""
        ns = self.next_stamp
        self.stamp[set_idx * self.assoc + way] = ns
        self.next_stamp = ns + 1

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """Stamp ``way`` below every live stamp (preferred victim)."""
        ds = self._demote_stamp
        self.stamp[set_idx * self.assoc + way] = ds
        self._demote_stamp = ds - 1

    def victim(
        self, set_idx: int, blocked: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Smallest-stamp way of the set (first non-blocked one)."""
        assoc = self.assoc
        base = set_idx * assoc
        stamp = self.stamp
        if blocked is None:
            # index() finds the first minimum, matching a way-order scan.
            ways = stamp[base : base + assoc]
            return ways.index(min(ways))
        for way in sorted(range(assoc), key=lambda w: stamp[base + w]):
            if not blocked(way):
                return way
        return -1

    def recency_order(self, set_idx: int) -> List[int]:
        """Ways in descending-stamp (MRU-first) order."""
        base = set_idx * self.assoc
        stamp = self.stamp
        return sorted(range(self.assoc), key=lambda w: -stamp[base + w])


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU over one flat direction-bit column.

    A complete binary tree of ``assoc - 1`` direction bits per set, packed
    into a single ``bytearray`` (set ``s`` owns the slice starting at
    ``s * (assoc - 1)``).  On a reference the bits along the leaf's path
    are pointed *away* from it; the victim is found by following the bits
    from the root.  ``assoc`` must be a power of two.
    """

    name = "tree-plru"

    def __init__(self, n_sets: int, assoc: int) -> None:
        if assoc & (assoc - 1):
            raise ValueError("TreePLRU requires power-of-two associativity")
        super().__init__(n_sets, assoc)
        self._levels = assoc.bit_length() - 1
        self._stride = max(1, assoc - 1)
        self._bits = bytearray(n_sets * self._stride)

    def on_access(self, set_idx: int, way: int) -> None:
        """Point the bits along ``way``'s path away from it."""
        if self.assoc == 1:
            return
        bits = self._bits
        base = set_idx * self._stride
        node = 0
        levels = self._levels
        for level in range(levels):
            bit = (way >> (levels - 1 - level)) & 1
            bits[base + node] = 0 if bit else 1  # point away from the leaf
            node = 2 * node + 1 + bit

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """Point the bits along ``way``'s path toward it (next victim)."""
        if self.assoc == 1:
            return
        bits = self._bits
        base = set_idx * self._stride
        node = 0
        levels = self._levels
        for level in range(levels):
            bit = (way >> (levels - 1 - level)) & 1
            bits[base + node] = bit  # point toward the invalidated leaf
            node = 2 * node + 1 + bit

    def victim(
        self, set_idx: int, blocked: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Follow the direction bits from the root to the PLRU leaf."""
        if self.assoc == 1:
            if blocked is not None and blocked(0):
                return -1
            return 0
        bits = self._bits
        base = set_idx * self._stride
        node = 0
        way = 0
        for _ in range(self._levels):
            bit = bits[base + node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        if blocked is None or not blocked(way):
            return way
        # Fall back to a linear scan in tree order when the PLRU choice is
        # blocked; hardware would stall, the simulator picks the next leaf.
        for cand in range(self.assoc):
            w = (way + cand) % self.assoc
            if not blocked(w):
                return w
        return -1

    def recency_order(self, set_idx: int) -> List[int]:
        """Victim-last pseudo-order from repeated simulated evictions.

        PLRU has no total order; this replays victims on a scratch copy
        of the set's bits (test helper only).
        """
        order: List[int] = []
        base = set_idx * self._stride
        saved = bytes(self._bits[base : base + self._stride])
        try:
            remaining = set(range(self.assoc))
            while remaining:
                v = self.victim(set_idx, blocked=lambda w: w not in remaining)
                order.append(v)
                remaining.discard(v)
                self.on_access(set_idx, v)
        finally:
            self._bits[base : base + self._stride] = saved
        return list(reversed(order))


class RandomPolicy(ReplacementPolicy):
    """Seeded pseudo-random replacement (reproducible across runs)."""

    name = "random"

    def __init__(self, n_sets: int, assoc: int, seed: int = 0xCACE) -> None:
        super().__init__(n_sets, assoc)
        self._rng = random.Random(seed)

    def on_access(self, set_idx: int, way: int) -> None:  # noqa: ARG002
        """References carry no state for random replacement."""
        return

    def on_invalidate(self, set_idx: int, way: int) -> None:  # noqa: ARG002
        """Invalidations carry no state for random replacement."""
        return

    def victim(
        self, set_idx: int, blocked: Optional[Callable[[int], bool]] = None
    ) -> int:
        """Draw a random start way; scan forward past blocked ways."""
        start = self._rng.randrange(self.assoc)
        for off in range(self.assoc):
            way = (start + off) % self.assoc
            if blocked is None or not blocked(way):
                return way
        return -1

    def recency_order(self, set_idx: int) -> List[int]:
        """Way order (random replacement tracks no recency)."""
        return list(range(self.assoc))


_POLICIES = {
    "lru": LRUPolicy,
    "tree-plru": TreePLRUPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, n_sets: int, assoc: int) -> ReplacementPolicy:
    """Build a replacement policy by name (``lru``/``tree-plru``/``random``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(n_sets, assoc)
