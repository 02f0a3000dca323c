"""Declarative benchmark profiles and the generic profile-to-workload builder.

Each of the six paper benchmarks is described by a :class:`Profile`: a
list of region declarations and a list of component declarations with
mixture weights.  A single generic builder turns a profile into a
:class:`~repro.workloads.trace.Workload`, which keeps all calibration in
one table per benchmark (weights, write fractions, reuse lags in decay
units) instead of scattered through imperative code.

Weight calibration rationale (from the paper's aggregate numbers):

* L2 *extra* misses under decay are ~1.5 % of L2 accesses (Fig 3(b):
  baseline ≈0.5 % → decay ≈2 %), and IPC loss stays ≤10 % on average
  (Fig 5(b)).  Mid-range reuse mass (lags between the 64K and 512K decay
  times) must therefore be a ~1–2 % sliver of accesses, not a dominant
  component — most traffic is short-reuse (hot sets, L1-resident) or
  streaming.
* occupancy floors and footprint coverage come from hot sets (always
  alive) plus cold streams (alive for one decay time after first touch);
* communication components (migratory, producer/consumer, shared tables)
  set the invalidation rate the Protocol technique feeds on.

Component kinds: ``hot``, ``cold``, ``trail`` (revisit of a cold stream at
a lag given in 64K-decay units), ``pchase`` (pointer chase sized so its
wrap period lands at ``lag_units``), ``sweep`` (shared read stream),
``migratory`` (phase-rotated RMW chunks), ``prodcons`` (phase-rotated
producer/consumer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .address_space import AddressSpace, Region
from .patterns import (
    ColdStream,
    WriteFracOverride,
    HotSet,
    MigratoryChunk,
    PointerChase,
    ProducerConsumer,
    SharedSweep,
    TrailingRevisit,
)
from .phases import PhaseSpec, lag_accesses, phased_workload
from .scaling import accesses_per_core, check_scale, decay_unit, hot_set_lines
from .trace import ILP_DEPENDENT, ILP_MODERATE, ILP_STREAMING, Workload

ILP = {"dep": ILP_DEPENDENT, "mod": ILP_MODERATE, "stream": ILP_STREAMING}


@dataclass(frozen=True)
class RegionSpec:
    """A named region: per-core private unless ``shared``."""

    name: str
    kb: int
    shared: bool = False


@dataclass(frozen=True)
class ComponentSpec:
    """One mixture component of a benchmark profile.

    ``lag_units`` is interpreted per kind: for ``trail`` the revisit lag,
    for ``pchase`` the wrap period — both in units of the (scaled) 64K
    decay time.  ``ref`` names the cold/sweep component a trail follows.
    """

    kind: str
    region: str
    weight: float
    write_frac: float = 0.0
    ilp: str = "mod"
    lag_units: float = 0.0
    ref: Optional[str] = None
    name: str = ""
    hot_lines: Optional[int] = None   # None = auto-size from scaling rule


@dataclass(frozen=True)
class Profile:
    """Complete declarative description of one benchmark.

    ``init_frac``: real applications touch their data structures during
    initialization before iterating on them; profiles model this with a
    leading *init phase* covering ``init_frac`` of the run in which
    cold/sweep components are boosted just enough to cover their regions
    exactly once (see the builder).  The harness skips it via its warmup
    fraction (the paper likewise collects statistics "after skipping
    initialization"), so steady-state occupancy reflects a touched
    footprint rather than a cold-start ramp.
    """

    name: str
    suite: str
    kind: str
    regions: Tuple[RegionSpec, ...]
    components: Tuple[ComponentSpec, ...]
    n_phases: int = 4
    mean_gap: float = 10.0
    description: str = ""
    init_frac: float = 0.15
    init_write_frac: float = 0.35

    def weight_sum(self) -> float:
        """Total mixture weight (should be ≈ 1.0)."""
        return sum(c.weight for c in self.components)

    def suggested_warmup(self) -> float:
        """Warmup fraction that skips the init phase (+ a small margin)."""
        return min(0.45, self.init_frac + 0.02)


def build_profile_workload(
    profile: Profile,
    n_cores: int = 4,
    scale: float = 1.0,
    seed: int = 1,
    line_bytes: int = 64,
) -> Workload:
    """Instantiate a profile as a runnable workload."""
    check_scale(scale)
    total = accesses_per_core(scale)
    init_accesses = int(total * profile.init_frac)
    per_phase = (total - init_accesses) // profile.n_phases
    d_unit = decay_unit(scale)
    gap = profile.mean_gap

    space = AddressSpace()
    shared_regions: Dict[str, Region] = {}
    private_regions: Dict[str, List[Region]] = {}
    for rs in profile.regions:
        if rs.shared:
            shared_regions[rs.name] = space.alloc_kb(rs.name, rs.kb, shared=True)
        else:
            private_regions[rs.name] = [
                space.alloc_kb(f"{rs.name}{c}", rs.kb) for c in range(n_cores)
            ]

    def region_for(name: str, cid: int) -> Region:
        """Resolve a region name to this core's (or the shared) region."""
        if name in shared_regions:
            return shared_regions[name]
        return private_regions[name][cid]

    def phase_factory(cid: int) -> List[PhaseSpec]:
        """Build core ``cid``'s phase list from the profile tables."""
        s0 = seed * 9176 + cid * 997
        built: Dict[str, object] = {}
        weight_of: Dict[str, float] = {}
        fixed: List[Tuple[object, float, str]] = []   # (comp, weight, kind)
        rotating: List[Tuple[ComponentSpec, float]] = []  # phase-dependent

        # First pass: everything except trails (which need their ref).
        for i, cs in enumerate(profile.components):
            key = cs.name or f"{cs.kind}{i}"
            s = s0 + i * 37
            if cs.kind == "hot":
                n = cs.hot_lines or hot_set_lines(cs.weight, cs.write_frac, gap)
                comp = HotSet(
                    region_for(cs.region, cid),
                    line_bytes,
                    s,
                    hot_lines=n,
                    write_frac=cs.write_frac,
                    ilp=ILP[cs.ilp],
                )
            elif cs.kind == "cold":
                comp = ColdStream(
                    region_for(cs.region, cid),
                    line_bytes,
                    s,
                    write_frac=cs.write_frac,
                    ilp=ILP[cs.ilp],
                )
            elif cs.kind == "sweep":
                comp = SharedSweep(
                    shared_regions[cs.region],
                    line_bytes,
                    s,
                    start_frac=cid / max(1, n_cores),
                    write_frac=cs.write_frac,
                    ilp=ILP[cs.ilp],
                )
            elif cs.kind == "pchase":
                region = region_for(cs.region, cid)
                nodes = max(
                    64, int(lag_accesses(cs.lag_units * d_unit, gap) * cs.weight)
                )
                nodes = min(nodes, region.n_lines(line_bytes))
                comp = PointerChase(
                    region, line_bytes, s, n_nodes=nodes, write_frac=cs.write_frac
                )
            elif cs.kind == "trail":
                comp = None  # second pass
            elif cs.kind in ("migratory", "prodcons"):
                rotating.append((cs, cs.weight))
                built[key] = None
                continue
            else:
                raise ValueError(f"unknown component kind {cs.kind!r}")
            built[key] = comp
            weight_of[key] = cs.weight
            if comp is not None:
                fixed.append((comp, cs.weight, cs.kind))

        # Second pass: trails referencing their cold/sweep streams.
        fallback = fixed[0][0] if fixed else None
        for i, cs in enumerate(profile.components):
            if cs.kind != "trail":
                continue
            key = cs.name or f"{cs.kind}{i}"
            s = s0 + 1000 + i * 41
            ref = built[cs.ref]
            cold = ref.inner if isinstance(ref, SharedSweep) else ref
            steps = max(
                1, int(lag_accesses(cs.lag_units * d_unit, gap) * weight_of[cs.ref])
            )
            comp = TrailingRevisit(
                cold,
                s,
                lag_cold_steps=steps,
                write_frac=cs.write_frac,
                ilp=ILP[cs.ilp],
                fallback=fallback,
            )
            built[key] = comp
            fixed.append((comp, cs.weight, cs.kind))

        phases: List[PhaseSpec] = []
        if init_accesses > 0:
            # Initialization pass.  Each stream's init weight is sized so
            # that (init + steady-state) emissions cover its region *once*
            # — never more.  A second pass over initialized lines would
            # manufacture long-lag reuse that decays under every decay
            # time, a pure artifact of the scaled run length (see the
            # facerec post-mortem in EXPERIMENTS.md).  Shared sweeps are
            # staggered per core, so one core initializes one 1/n_cores
            # slice.  Streams initialize with a moderate store fraction
            # (arrays are built from input reads as well as stores), which
            # keeps the Modified share of the footprint — and hence
            # Selective Decay's occupancy floor — realistic.
            cold_kinds = ("cold", "sweep")
            steady_accesses = max(1, total - init_accesses)
            init_w = []
            for c, w, k in fixed:
                if k not in cold_kinds:
                    init_w.append(0.0)
                    continue
                stream = c.inner if isinstance(c, SharedSweep) else c
                lines = stream.n_lines
                if k == "sweep":
                    lines = lines / max(1, n_cores)
                steady_emissions = w * steady_accesses
                target = max(0.0, 0.92 * lines - steady_emissions)
                init_w.append(target / init_accesses)
            w_cold_init = sum(init_w)
            if w_cold_init > 0.8:
                init_w = [w * 0.8 / w_cold_init for w in init_w]
                w_cold_init = 0.8
            w_rest_steady = sum(w for (_, w, k) in fixed if k not in cold_kinds)
            shrink = (1.0 - w_cold_init) / w_rest_steady if w_rest_steady > 0 else 0.0
            init_comps = []
            for idx, ((c, w, k), wi) in enumerate(zip(fixed, init_w)):
                if k in cold_kinds:
                    init_comps.append(
                        WriteFracOverride(c, profile.init_write_frac, s0 + 5000 + idx)
                    )
                else:
                    init_comps.append(c)
                    init_w[idx] = w * shrink
            if sum(init_w) > 0:
                phases.append(PhaseSpec(init_comps, init_w, init_accesses, gap))
        for p in range(profile.n_phases):
            comps = [c for c, _, _ in fixed]
            weights = [w for _, w, _ in fixed]
            for cs, w in rotating:
                s = s0 + 2000 + p * 61
                region = shared_regions[cs.region]
                if cs.kind == "migratory":
                    chunk = region.slice((cid + p) % n_cores, n_cores, line_bytes)
                    comps.append(
                        MigratoryChunk(chunk, line_bytes, s, rmw=True, ilp=ILP[cs.ilp])
                    )
                else:  # prodcons
                    producing = (p % n_cores) == cid
                    comps.append(
                        ProducerConsumer(
                            region, line_bytes, s, producing=producing, ilp=ILP[cs.ilp]
                        )
                    )
                weights.append(w)
            phases.append(PhaseSpec(comps, weights, per_phase, gap))
        return phases

    priv_bytes = sum(r[0].size for r in private_regions.values())
    shared_bytes = sum(r.size for r in shared_regions.values())
    return phased_workload(
        name=profile.name,
        suite=profile.suite,
        kind=profile.kind,
        phase_factory=phase_factory,
        n_cores=n_cores,
        accesses_per_core=total,
        footprint_bytes=priv_bytes + shared_bytes,
        shared_bytes=shared_bytes,
        seed=seed,
        description=profile.description,
    )
