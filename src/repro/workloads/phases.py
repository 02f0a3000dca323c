"""Phase/mixture engine: turns pattern components into per-core streams.

A workload is a sequence of *phases* per core.  Within a phase, accesses
are drawn from a weighted mixture of components; phases are separated by
barriers (all cores synchronize, like SPLASH-2's global barriers between
time steps).  Compute gaps between memory operations are geometric with a
configurable mean, giving a realistic exponential-ish inter-access time
distribution.

The per-access loop is the generator hot path.  Component choices and gaps
are drawn in numpy blocks and turned into Python lists once per block;
the loop then calls each chosen component's pre-bound ``emit`` and yields
the block's records in one ``zip``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence

import numpy as np

from .trace import (
    Record,
    Workload,
    WorkloadMeta,
    barrier_record,
    make_flags,
)

_BLOCK = 4096


@dataclass
class PhaseSpec:
    """One phase of one core's execution.

    ``components``/``weights`` define the access mixture; ``n_accesses``
    the phase length; ``mean_gap`` the average number of non-memory
    instructions between memory operations.
    """

    components: Sequence
    weights: Sequence[float]
    n_accesses: int
    mean_gap: float = 10.0

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights):
            raise ValueError("components and weights must have equal length")
        if not self.components:
            raise ValueError("phase needs at least one component")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        if self.n_accesses < 0:
            raise ValueError("n_accesses must be non-negative")
        if self.mean_gap < 0:
            raise ValueError("mean_gap must be non-negative")


#: Pre-computed flag words indexed by [ilp][is_write].
_FLAGS = [
    [make_flags(write=False, ilp=i), make_flags(write=True, ilp=i)]
    for i in range(3)
]


def phase_stream(
    phases: Sequence[PhaseSpec], seed: int, barrier_between: bool = True
) -> Iterator[Record]:
    """Generate the record stream of one core across its phases."""
    rng = np.random.default_rng(seed)
    # every address, in order: LaggedRevisit components read it
    history: List[int] = []
    remember = history.append
    flags_tab = _FLAGS
    for pi, phase in enumerate(phases):
        emits = [comp.emit for comp in phase.components]
        w = np.asarray(phase.weights, dtype=np.float64)
        cumw = np.cumsum(w / w.sum())
        p_gap = 1.0 / (phase.mean_gap + 1.0)
        remaining = phase.n_accesses
        while remaining > 0:
            n = min(_BLOCK, remaining)
            remaining -= n
            choices = np.searchsorted(cumw, rng.random(n)).tolist()
            gaps = (rng.geometric(p_gap, n) - 1).tolist()
            start = len(history)
            flags: List[int] = []
            add_flags = flags.append
            for choice in choices:
                addr, is_write, ilp = emits[choice](history)
                remember(addr)
                add_flags(flags_tab[ilp][1 if is_write else 0])
            yield from zip(gaps, history[start:], flags)
        if barrier_between and pi < len(phases) - 1:
            yield barrier_record()


def phased_workload(
    name: str,
    suite: str,
    kind: str,
    phase_factory: Callable[[int], Sequence[PhaseSpec]],
    n_cores: int,
    accesses_per_core: int,
    footprint_bytes: int,
    shared_bytes: int,
    seed: int,
    description: str = "",
) -> Workload:
    """Assemble a :class:`~repro.workloads.trace.Workload`.

    ``phase_factory(core_id)`` must build a fresh, independent phase list
    every call — the workload's ``streams()`` may be invoked repeatedly
    (once per simulated configuration) and component state (stream
    positions, RNG cursors) must not leak across runs.
    """
    meta = WorkloadMeta(
        name=name,
        suite=suite,
        kind=kind,
        accesses_per_core=accesses_per_core,
        footprint_bytes=footprint_bytes,
        shared_bytes=shared_bytes,
        description=description,
    )

    def factory(n: int) -> list:
        """Materialize one record stream per core (validating the count)."""
        if n != n_cores:
            raise ValueError(f"workload {name} built for {n_cores} cores, asked {n}")
        return [
            phase_stream(phase_factory(cid), seed=(seed * 1_000_003 + cid))
            for cid in range(n)
        ]

    return Workload(meta, factory)


def estimate_cycles_per_access(mean_gap: float, issue_width: int = 4) -> float:
    """Rough cycles-per-memory-access used to convert lags cycles→accesses.

    gap/issue-width compute cycles + ~1 issue cycle + a small average
    exposed-memory contribution.  The constant was fitted once against the
    simulator (see ``tests/workloads/test_cpa_estimate.py``) — precision is
    not critical, it only positions reuse-lag mass.
    """
    return mean_gap / issue_width + 1.9


def lag_accesses(lag_cycles: float, mean_gap: float, issue_width: int = 4) -> int:
    """Convert a reuse lag in cycles to a lag in accesses."""
    cpa = estimate_cycles_per_access(mean_gap, issue_width)
    return max(1, int(round(lag_cycles / cpa)))
