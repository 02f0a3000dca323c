"""Composable access-pattern components.

Each component models one kind of memory behaviour observed in the paper's
benchmark suites; a per-core *mixture* (see :mod:`repro.workloads.phases`)
interleaves several components with configurable weights.  Components are
deliberately scale-aware: temporal knobs (revisit lags) are expressed in
cycles and provided already scaled by the harness, while spatial knobs
(footprints) are physical bytes — see DESIGN.md §5 on why this split keeps
the paper's shapes reproducible in short runs.

Component protocol::

    addr, is_write, ilp = component.emit(history)

``history`` is the per-core list of previously emitted byte addresses
(appended by the mixture); :class:`LaggedRevisit` uses it to re-touch lines
last seen a chosen time ago, which is the knob that positions reuse-
interval mass relative to the decay times.

All randomness is drawn from per-component ``numpy`` generators with
derived seeds and is pre-generated in blocks of :data:`_BLOCK` draws.
Each block is turned into Python values once (``tolist``) and consumed
through an iterator, so a per-access draw is one ``next()`` call, never a
numpy scalar read.  Block sizes and the order of draws on each
component's generator define the records; how the drawn values are held
does not.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .address_space import Region
from .trace import ILP_DEPENDENT, ILP_MODERATE, ILP_STREAMING

_BLOCK = 4096  # pre-generation block size


class _Blocked:
    """Shared helper: block-cached random draws."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._wflags: Iterator[bool] = iter(())
        self._wfrac = -1.0

    def _write_block(self, write_frac: float) -> List[bool]:
        """The next block of Bernoulli(write_frac) write flags."""
        return (self.rng.random(_BLOCK) < write_frac).tolist()

    def _write_flag(self, write_frac: float) -> bool:
        """Cheap Bernoulli(write_frac) draw (a new block on a new fraction)."""
        if write_frac == self._wfrac:
            try:
                return next(self._wflags)
            except StopIteration:
                pass
        self._wflags = iter(self._write_block(write_frac))
        self._wfrac = write_frac
        return next(self._wflags)


class ColdStream(_Blocked):
    """Sequential first-touch sweep over a region (streaming behaviour).

    Models frame buffers, input streams, and large array passes: every line
    is touched in order, in short bursts of ``burst`` consecutive accesses
    per line-step, wrapping at the region end.  Reuse interval of a line is
    the full wrap period — effectively infinite for short runs — so these
    lines are decay-friendly (dead after first use).
    """

    name = "cold_stream"

    def __init__(
        self,
        region: Region,
        line_bytes: int,
        seed: int,
        write_frac: float = 0.0,
        ilp: int = ILP_STREAMING,
        start_line: int = 0,
        stride_lines: int = 1,
    ) -> None:
        super().__init__(seed)
        self.region = region
        self.line_bytes = line_bytes
        self.write_frac = write_frac
        self.ilp = ilp
        self.n_lines = region.n_lines(line_bytes)
        if self.n_lines < 1:
            raise ValueError(f"region {region.name} smaller than one line")
        self.pos = start_line % self.n_lines
        self.stride = stride_lines
        self.wrapped = 0

    def emit(self, history: List[int]) -> tuple:
        """Next streaming access (advance by the stride, wrap at the region end)."""
        addr = self.region.base + self.pos * self.line_bytes
        self.pos += self.stride
        if self.pos >= self.n_lines:
            self.pos %= self.n_lines
            self.wrapped += 1
        return (addr, self._write_flag(self.write_frac), self.ilp)


class HotSet(_Blocked):
    """Uniform or Zipf-skewed accesses over a small resident set.

    Models locks, tables, stack frames, per-thread accumulators: reuse
    intervals far below any decay time, so these lines never decay and
    anchor the occupancy floor.
    """

    name = "hot_set"

    def __init__(
        self,
        region: Region,
        line_bytes: int,
        seed: int,
        hot_lines: Optional[int] = None,
        write_frac: float = 0.3,
        zipf_alpha: float = 0.0,
        ilp: int = ILP_MODERATE,
    ) -> None:
        super().__init__(seed)
        self.region = region
        self.line_bytes = line_bytes
        self.write_frac = write_frac
        self.ilp = ilp
        n = region.n_lines(line_bytes)
        self.hot_lines = n if hot_lines is None else min(hot_lines, n)
        if self.hot_lines < 1:
            raise ValueError("hot set must contain at least one line")
        if zipf_alpha > 0.0:
            ranks = np.arange(1, self.hot_lines + 1, dtype=np.float64)
            p = ranks ** (-zipf_alpha)
            self._p = p / p.sum()
        else:
            self._p = None
        self._accesses: Iterator[tuple] = iter(())

    def _refill(self) -> Iterator[tuple]:
        """The next block of accesses: a line-index block, then a write block.

        Every emit takes one draw of each, so both blocks always run out
        together and are drawn in this order, index block first.
        """
        if self._p is None:
            idx = self.rng.integers(0, self.hot_lines, _BLOCK)
        else:
            idx = self.rng.choice(self.hot_lines, _BLOCK, p=self._p)
        writes = self._write_block(self.write_frac)
        base, line = self.region.base, self.line_bytes
        addrs = [base + i * line for i in idx.tolist()]
        return zip(addrs, writes, repeat(self.ilp))

    def emit(self, history: List[int]) -> tuple:
        """One access to a (possibly Zipf-weighted) hot line."""
        try:
            return next(self._accesses)
        except StopIteration:
            self._accesses = self._refill()
            return next(self._accesses)


class LaggedRevisit(_Blocked):
    """Re-touch a line last accessed ≈ ``lag_accesses`` ago.

    This is the reuse-interval shaper: mass placed at lag L (in accesses;
    the builder converts cycles → accesses with the workload's
    cycles-per-access estimate) produces L2 reuse hits in the baseline that
    become misses under any decay time shorter than L — exactly the
    mechanism behind the paper's decay-time sensitivity (Fig 5/6).

    When the history is still shorter than the lag, falls back to the
    provided ``fallback`` component (typically the hot set).
    """

    name = "lagged_revisit"

    def __init__(
        self,
        line_bytes: int,
        seed: int,
        lag_accesses: int,
        jitter_frac: float = 0.2,
        write_frac: float = 0.1,
        ilp: int = ILP_DEPENDENT,
        fallback=None,
    ) -> None:
        super().__init__(seed)
        if lag_accesses < 1:
            raise ValueError("lag_accesses must be >= 1")
        self.line_bytes = line_bytes
        self.lag = lag_accesses
        self.jitter = int(lag_accesses * jitter_frac)
        self.write_frac = write_frac
        self.ilp = ilp
        self.fallback = fallback
        self._lags: Iterator[int] = iter(())

    def _lag_sample(self) -> int:
        if not self.jitter:
            return self.lag
        try:
            return next(self._lags)
        except StopIteration:
            jitter = self.rng.integers(-self.jitter, self.jitter + 1, _BLOCK)
            self._lags = iter((self.lag + jitter).tolist())
            return next(self._lags)

    def emit(self, history: List[int]) -> tuple:
        """Re-touch the address emitted ``lag`` accesses ago (or the fallback)."""
        lag = self._lag_sample()
        idx = len(history) - lag
        if idx < 0:
            if self.fallback is not None:
                return self.fallback.emit(history)
            idx = 0
            if not history:
                # Degenerate: nothing to revisit yet and no fallback.
                return (0, False, self.ilp)
        return (history[idx], self._write_flag(self.write_frac), self.ilp)


class TrailingRevisit(_Blocked):
    """Re-touch lines a :class:`ColdStream` swept a fixed time ago.

    The precise reuse-interval shaper used by the benchmark models: cold
    streams advance one line per emission, so the line emitted ``k`` cold
    steps ago is simply ``pos - k`` (mod region size) — no history scan
    needed.  Given the stream's mixture weight ``w_cold`` and a target lag
    in *global* accesses ``lag_accesses``, the builder passes
    ``lag_cold_steps = lag_accesses * w_cold``.

    Lines revisited this way have a baseline L2 reuse distance of
    ``lag_accesses × cycles-per-access`` cycles; any decay time shorter
    than that turns the revisit into a decay-induced miss.  This is the
    knob that positions the paper's decay-time sensitivity.
    """

    name = "trailing_revisit"

    def __init__(
        self,
        cold: "ColdStream",
        seed: int,
        lag_cold_steps: int,
        jitter_frac: float = 0.15,
        write_frac: float = 0.1,
        ilp: int = ILP_MODERATE,
        fallback=None,
    ) -> None:
        super().__init__(seed)
        if lag_cold_steps < 1:
            raise ValueError("lag_cold_steps must be >= 1")
        self.cold = cold
        self.lag = lag_cold_steps
        self.jitter = int(lag_cold_steps * jitter_frac)
        self.write_frac = write_frac
        self.ilp = ilp
        self.fallback = fallback
        self._lags: Iterator[int] = iter(())

    def _lag_sample(self) -> int:
        if not self.jitter:
            return self.lag
        try:
            return next(self._lags)
        except StopIteration:
            jitter = self.rng.integers(-self.jitter, self.jitter + 1, _BLOCK)
            self._lags = iter(np.maximum(self.lag + jitter, 1).tolist())
            return next(self._lags)

    def emit(self, history: List[int]) -> tuple:
        """Revisit a line the tracked cold stream touched ``lag`` steps ago."""
        cold = self.cold
        lag = self._lag_sample()
        covered = cold.pos + cold.wrapped * cold.n_lines
        if lag >= covered:
            if self.fallback is not None:
                return self.fallback.emit(history)
            lag = max(1, covered)
            if covered == 0:
                return (cold.region.base, False, self.ilp)
        idx = (cold.pos - lag) % cold.n_lines
        addr = cold.region.base + idx * cold.line_bytes
        return (addr, self._write_flag(self.write_frac), self.ilp)


class SharedSweep(_Blocked):
    """Streaming reads over a shared region (read-only sharing).

    Models VOLREND's volume and facerec's gallery: many cores stream the
    same data, producing widely Shared lines and zero invalidations.
    Each core can start at its own offset so sharing overlaps but is not
    lock-step.
    """

    name = "shared_sweep"

    def __init__(
        self,
        region: Region,
        line_bytes: int,
        seed: int,
        start_frac: float = 0.0,
        write_frac: float = 0.0,
        ilp: int = ILP_STREAMING,
    ) -> None:
        super().__init__(seed)
        self.inner = ColdStream(
            region,
            line_bytes,
            seed ^ 0x5EED,
            write_frac=write_frac,
            ilp=ilp,
            start_line=int(region.n_lines(line_bytes) * start_frac),
        )

    def emit(self, history: List[int]) -> tuple:
        """Delegate to the inner stream component."""
        return self.inner.emit(history)


class MigratoryChunk(_Blocked):
    """Read-modify-write bursts over a shared chunk (migratory sharing).

    The caller points each core at the chunk it *owns this phase*; rotating
    ownership between phases produces the classic migratory pattern: the
    new owner's BusRdX invalidates the previous owner's lines — the food of
    the paper's Protocol technique.
    """

    name = "migratory"

    def __init__(
        self,
        chunk: Region,
        line_bytes: int,
        seed: int,
        rmw: bool = True,
        ilp: int = ILP_MODERATE,
    ) -> None:
        super().__init__(seed)
        self.chunk = chunk
        self.line_bytes = line_bytes
        self.n_lines = chunk.n_lines(line_bytes)
        self.rmw = rmw
        self.ilp = ilp
        self._phase_read = True
        self._pos = 0
        self._indices: Iterator[int] = iter(())

    def _index(self) -> int:
        try:
            return next(self._indices)
        except StopIteration:
            self._indices = iter(self.rng.integers(0, self.n_lines, _BLOCK).tolist())
            return next(self._indices)

    def emit(self, history: List[int]) -> tuple:
        """One access of the read-modify-write (or plain) chunk pattern."""
        if self.rmw:
            # Alternate read / write to the same line: load, then store.
            if self._phase_read:
                self._pos = self._index()
                self._phase_read = False
                return (
                    self.chunk.base + self._pos * self.line_bytes,
                    False,
                    self.ilp,
                )
            self._phase_read = True
            return (self.chunk.base + self._pos * self.line_bytes, True, self.ilp)
        return (self.chunk.base + self._index() * self.line_bytes, True, self.ilp)


class ProducerConsumer(_Blocked):
    """One-directional streaming communication through a shared buffer.

    In a *producing* phase the component writes the chunk sequentially; in
    a *consuming* phase it reads it.  Alternating roles across cores and
    phases yields upgrade/invalidation traffic plus cache-to-cache
    transfers (dirty flush on the consumer's BusRd).
    """

    name = "producer_consumer"

    def __init__(
        self,
        chunk: Region,
        line_bytes: int,
        seed: int,
        producing: bool,
        ilp: int = ILP_MODERATE,
    ) -> None:
        super().__init__(seed)
        self.inner = ColdStream(
            chunk,
            line_bytes,
            seed ^ 0xAB1E,
            write_frac=1.0 if producing else 0.0,
            ilp=ilp,
        )
        self.producing = producing

    def emit(self, history: List[int]) -> tuple:
        """Delegate to the inner stream component."""
        return self.inner.emit(history)


class PointerChase(_Blocked):
    """Random-permutation walk over a region (dependent loads).

    Models FMM's tree traversals: every load depends on the previous one
    (ILP class *dependent*, so decay-induced misses are fully exposed),
    and the walk revisits each line once per full cycle of the permutation.
    """

    name = "pointer_chase"

    def __init__(
        self,
        region: Region,
        line_bytes: int,
        seed: int,
        n_nodes: Optional[int] = None,
        write_frac: float = 0.0,
    ) -> None:
        super().__init__(seed)
        self.region = region
        self.line_bytes = line_bytes
        n = region.n_lines(line_bytes)
        self.n_nodes = min(n_nodes or n, n)
        # A single-cycle permutation guarantees full coverage.
        perm = self.rng.permutation(self.n_nodes)
        nxt = np.empty(self.n_nodes, dtype=np.int64)
        nxt[perm[:-1]] = perm[1:]
        nxt[perm[-1]] = perm[0]
        self._next = nxt.tolist()
        self._cur = int(perm[0])
        self.write_frac = write_frac

    def emit(self, history: List[int]) -> tuple:
        """Follow one pointer hop (dependent load)."""
        addr = self.region.base + self._cur * self.line_bytes
        self._cur = self._next[self._cur]
        return (addr, self._write_flag(self.write_frac), ILP_DEPENDENT)


class WriteFracOverride(_Blocked):
    """Delegate to another component but re-draw the write flag.

    Used by the profile builder's *init phase*: the same stateful stream
    component (position must carry over into steady state) is driven with
    a different store fraction — real initialization mixes stores with
    reads of input files, so not every initialized line ends up Modified.
    """

    name = "write_frac_override"

    def __init__(self, inner, write_frac: float, seed: int) -> None:
        super().__init__(seed)
        self.inner = inner
        self.write_frac = write_frac

    def emit(self, history: List[int]) -> tuple:
        """Delegate to the inner component, re-drawing the write flag."""
        addr, _, ilp = self.inner.emit(history)
        return (addr, self._write_flag(self.write_frac), ilp)


def component_names(components: Sequence) -> List[str]:
    """Names of a component list (diagnostics)."""
    return [c.name for c in components]
