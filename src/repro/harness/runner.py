"""Sweep runner with a sharded on-disk result cache.

Every figure of the paper draws from the same simulation matrix
(6 benchmarks × 4 cache sizes × 8 technique configurations), so the eight
per-figure benches share one result cache keyed by the full configuration.
A cache entry stores the serialized :class:`~repro.sim.stats.SimResult`
plus the energy breakdown; cache misses simulate on demand.

Points are typed: the runner's unit of work is a
:class:`~repro.harness.spec.SweepPoint` — workload, total L2 capacity, a
full :class:`~repro.sim.config.TechniqueConfig`, and optional
runner-context overrides.  Cache keys are derived from the point's
canonical serialized form via
:func:`~repro.sim.config.stable_digest`, so any process on any host
computes the same key for the same point.  (The pre-spec
``(workload, total_mb, tech_label)`` string triples rode through one
release as deprecated shims and are gone; build points with
:meth:`SweepRunner.point`.)

Storage is a :class:`~repro.harness.result_cache.ResultCache`: entries are
sharded by key digest, written atomically (tmp file + ``os.replace``) so an
interrupted run can never leave a truncated blob behind, and corrupt
entries are skipped and resimulated instead of crashing every later load.
Loaded and simulated points are additionally memoized in-process, which is
what lets the parallel executor hand results straight to figure code.
The runner also keeps the last workload stream it simulated as a
:class:`~repro.workloads.trace.ReplayWorkload` (one slot, keyed by
:meth:`SweepRunner.stream_key`), so consecutive points on one stream
generate its records once.

The cache key includes a schema version — bump :data:`CACHE_VERSION` when
simulator semantics change so stale entries are never mixed into figures.
For whole matrices or spec files, prefer
:class:`~repro.harness.executor.ParallelSweepRunner`, which shards the
point list across a backend.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import socket
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..power.energy import EnergyBreakdown, EnergyModel
from ..sim.config import (
    BASELINE,
    CMPConfig,
    PAPER_TOTAL_L2_MB,
    TechniqueConfig,
    paper_technique_order,
    paper_techniques,
    stable_digest,
)
from ..sim.simulator import simulate
from ..sim.stats import SimResult
from ..workloads.registry import PAPER_BENCHMARKS, get_workload
from ..workloads.trace import ReplayWorkload
from .metrics import PointMetrics
from .result_cache import ResultCache
from .spec import ExperimentSpec, SpecError, SweepPoint

#: bump when simulator/workload semantics change (invalidates caches).
#: v9: point-digest cache keys (the spec-API redesign).
CACHE_VERSION = 9

#: default warmup: skips the workloads' init phase (DESIGN.md §5)
DEFAULT_WARMUP = 0.17

#: (SimResult, EnergyBreakdown) of one sweep point
PointResult = Tuple[SimResult, EnergyBreakdown]

#: characters allowed in cache-key prefixes: anything else (``/``, ``:``,
#: ``\\``, ...) is path-hostile on some filesystem
_KEY_UNSAFE = re.compile(r"[^A-Za-z0-9._+-]")


def _breakdown_to_dict(bd: EnergyBreakdown) -> dict:
    return asdict(bd)


def _breakdown_from_dict(d: dict) -> EnergyBreakdown:
    return EnergyBreakdown(**d)


def decode_entry(blob: dict) -> PointResult:
    """Decode one cache entry; raises on schema mismatch."""
    return (
        SimResult.from_dict(blob["result"]),
        _breakdown_from_dict(blob["energy"]),
    )


def encode_entry(res: SimResult, energy: EnergyBreakdown) -> dict:
    """Inverse of :func:`decode_entry` (the on-disk entry format)."""
    return {"result": res.to_dict(), "energy": _breakdown_to_dict(energy)}


class SweepRunner:
    """Simulates typed sweep points with in-process and on-disk caching."""

    def __init__(
        self,
        scale: float = 0.1,
        seed: int = 1,
        n_cores: int = 4,
        warmup_fraction: float = DEFAULT_WARMUP,
        cache_dir: Optional[str] = ".repro_cache",
        verbose: bool = True,
        trace_root: Optional[str] = None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.n_cores = n_cores
        self.warmup = warmup_fraction
        self.cache_dir = cache_dir
        #: directory relative ``trace:`` workload paths resolve against
        #: (the spec file's directory when running a spec file).  Not
        #: part of cache keys — points keep their relative names, so
        #: digests stay host-portable.
        self.trace_root = trace_root
        self.cache = ResultCache(cache_dir, CACHE_VERSION) if cache_dir else None
        self.verbose = verbose
        #: provenance identity: which execution path produced entries
        #: (backends overwrite this on their worker runners)
        self.backend_label = "serial"
        self.worker_id = f"{socket.gethostname()}-{os.getpid()}"
        #: ``(stream_key, ReplayWorkload)`` of the last stream simulated:
        #: one slot, so the runner never holds two streams' columns
        self._stream_memo: Optional[Tuple[str, ReplayWorkload]] = None
        self._memo: Dict[str, PointResult] = {}
        #: memoized technique table (``point_key`` sits on the cache hot
        #: path; rebuilding 8 TechniqueConfigs per lookup was measurable —
        #: see ``benchmarks/bench_sweep_parallel.py``)
        self._tech_configs: Optional[Dict[str, TechniqueConfig]] = None

    # ------------------------------------------------------------------
    def runner_params(self, **overrides) -> dict:
        """JSON-safe constructor kwargs that rebuild an equivalent runner.

        Backends ship these to their workers (over a socket, or inside a
        batch task file) so every worker simulates with exactly the
        coordinator's scale/seed/warmup — the precondition for
        byte-identical results.  ``cache_dir`` is included only when
        passed as an override: each backend decides where (and whether)
        its workers persist entries.
        """
        params = dict(
            scale=self.scale,
            seed=self.seed,
            n_cores=self.n_cores,
            warmup_fraction=self.warmup,
        )
        if self.trace_root is not None:
            # absolute, so workers resolve trace files regardless of cwd
            params["trace_root"] = os.path.abspath(self.trace_root)
        params.update(overrides)
        return params

    # ------------------------------------------------------------------
    # Point construction / coercion
    # ------------------------------------------------------------------
    def technique_configs(self) -> Dict[str, TechniqueConfig]:
        """Baseline + the paper's seven technique configurations.

        Memoized per runner: the table is pure in ``self.scale``, and the
        cache-lookup hot path resolves labels through it.
        """
        if self._tech_configs is None:
            out = {BASELINE: TechniqueConfig(name=BASELINE)}
            out.update(paper_techniques(self.scale))
            self._tech_configs = out
        return self._tech_configs

    def technique_order(self) -> List[str]:
        """Figure ordering: baseline first, then the paper's seven."""
        return [BASELINE, *paper_technique_order()]

    def point(self, workload: str, total_mb: int, tech_label: str) -> SweepPoint:
        """Typed :class:`SweepPoint` for paper-matrix coordinates.

        ``tech_label`` is resolved through :meth:`technique_configs`
        (this runner's scaled technique table); the returned point
        inherits the runner context, so its cache key matches any other
        runner configured with the same scale/seed/cores/warmup.
        """
        techs = self.technique_configs()
        if tech_label not in techs:
            raise SpecError(
                f"unknown technique {tech_label!r}; one of: "
                f"{', '.join(self.technique_order())}"
            )
        return SweepPoint(
            workload=workload,
            total_mb=int(total_mb),
            technique=techs[tech_label],
            tech_label=tech_label,
        )

    def points_for(
        self,
        benchmarks: Iterable[str],
        sizes: Iterable[int],
        techniques: Iterable[str],
    ) -> List[SweepPoint]:
        """Grid of points in canonical sweep order (sizes, workloads, techs)."""
        techniques = list(techniques)
        return [
            self.point(wl, mb, tech)
            for mb in sizes
            for wl in benchmarks
            for tech in techniques
        ]

    def expand_spec(self, spec: ExperimentSpec) -> List[SweepPoint]:
        """Expand a spec with this runner's scale (label resolution)."""
        return spec.expand(scale=self.scale)

    # ------------------------------------------------------------------
    # Context resolution and cache keys
    # ------------------------------------------------------------------
    def context_for(self, point: SweepPoint) -> Dict[str, Union[int, float]]:
        """Effective execution context: point overrides, else runner values."""
        return {
            "n_cores": point.n_cores if point.n_cores is not None else self.n_cores,
            "scale": point.scale if point.scale is not None else self.scale,
            "seed": point.seed if point.seed is not None else self.seed,
            "warmup": point.warmup if point.warmup is not None else self.warmup,
        }

    def config_for(self, point: SweepPoint) -> CMPConfig:
        """System config for one sweep point (honoring its overrides)."""
        ctx = self.context_for(point)
        return (
            CMPConfig(n_cores=int(ctx["n_cores"]), seed=int(ctx["seed"]))
            .with_total_l2_mb(point.total_mb)
            .with_technique(point.technique)
        )

    def point_key(self, p: SweepPoint) -> str:
        """Cache key of one point: readable prefix + stable digest.

        The digest covers the point's canonical form *resolved against
        the effective context* (overrides, else runner defaults), plus
        the full ``CMPConfig.key()`` — so a point without overrides and
        the same point with overrides equal to the runner's defaults
        share one cache entry, while any semantic difference (decay
        cycles, core count, warmup, geometry) separates them.

        For ``trace:`` workloads (including trace components of mixes)
        the payload also folds in each trace file's **content** sha256,
        so re-capturing or overwriting a trace at the same path can
        never serve stale cached results.  Content hashes (not resolved
        paths) go into the digest, keeping keys host-portable.
        """
        ctx = self.context_for(p)
        payload = {
            "workload": p.workload,
            "total_mb": p.total_mb,
            "tech_label": p.tech_label,
            "technique": p.technique.to_dict(),
            "config": self.config_for(p).key(),
            **ctx,
        }
        if "trace:" in p.workload:
            payload["traces"] = self._trace_digests(p.workload)
        digest = stable_digest(json.dumps(payload, sort_keys=True))
        # the digest is the identity; the prefix is only readable and
        # must stay a single path component safe on every filesystem
        # (trace: workload names carry ':' and filesystem paths)
        prefix = f"{p.workload}-{p.tech_label}-{p.total_mb}MB"
        return f"{_KEY_UNSAFE.sub('_', prefix)}-{digest[:20]}"

    def _trace_digests(self, workload: str) -> Dict[str, Optional[str]]:
        """Content sha256 per ``trace:`` component of ``workload``.

        Unreadable components map to ``None`` — key computation must not
        raise (lookups may precede the run that reports the real error),
        and a missing file can never alias a readable one's key.
        """
        from ..traces.workload import trace_components, trace_digest, trace_path

        digests: Dict[str, Optional[str]] = {}
        for component in trace_components(workload):
            try:
                digests[component] = trace_digest(
                    trace_path(component, self.trace_root)
                )
            except (OSError, ValueError):
                digests[component] = None
        return digests

    def stream_key(self, p: SweepPoint) -> str:
        """Identity of the record streams a point simulates.

        The workload name and the effective core count, scale and seed,
        plus — exactly as in :meth:`point_key` — each ``trace:``
        component's content sha256.  Points that differ only in L2
        capacity, technique or warmup share a stream key, and a trace
        re-captured at the same path gets a new one.
        """
        ctx = self.context_for(p)
        payload = {
            "workload": p.workload,
            "n_cores": int(ctx["n_cores"]),
            "scale": float(ctx["scale"]),
            "seed": int(ctx["seed"]),
        }
        if "trace:" in p.workload:
            payload["traces"] = self._trace_digests(p.workload)
        return stable_digest(json.dumps(payload, sort_keys=True))

    def _workload(self, p: SweepPoint) -> ReplayWorkload:
        """The point's workload, held in the runner's one stream slot.

        A point with another :meth:`stream_key` drops the held memo
        before its own workload is built, so a runner never keeps two
        streams' columns alive.  The columns themselves are built by the
        first simulation that consumes the replay.
        """
        key = self.stream_key(p)
        if self._stream_memo is None or self._stream_memo[0] != key:
            self._stream_memo = None
            ctx = self.context_for(p)
            source = get_workload(
                p.workload,
                n_cores=int(ctx["n_cores"]),
                scale=float(ctx["scale"]),
                seed=int(ctx["seed"]),
                trace_root=self.trace_root,
            )
            self._stream_memo = (key, ReplayWorkload(source))
        return self._stream_memo[1]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def lookup(self, point: SweepPoint) -> Optional[PointResult]:
        """Memo/disk lookup of one point; ``None`` means "must simulate".

        Corrupt or schema-stale disk entries are invalidated here, so the
        caller's resimulation overwrites them with a good blob.
        """
        key = self.point_key(point)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.cache is None:
            return None
        blob = self.cache.get(key)
        if blob is None:
            return None
        try:
            pair = decode_entry(blob)
        except (KeyError, TypeError, ValueError):
            self.cache.invalidate(key)
            return None
        self._memo[key] = pair
        return pair

    def partition_cached(
        self, points: Iterable[SweepPoint]
    ) -> Tuple[List[SweepPoint], List[SweepPoint]]:
        """Split a point list into ``(cached, missing)`` by lookup.

        The resume seam: ``repro-cmp run --resume`` partitions the
        planned campaign first, reports how much of it is already
        settled in the cache, and hands only ``missing`` onward.  A
        point counts as cached only if its entry actually decodes —
        :meth:`lookup` invalidates corrupt/stale blobs — so resuming
        over a damaged cache re-simulates exactly the damaged points.
        """
        cached: List[SweepPoint] = []
        missing: List[SweepPoint] = []
        for point in points:
            if self.lookup(point) is not None:
                cached.append(point)
            else:
                missing.append(point)
        return cached, missing

    def provenance(self, **overrides: str) -> Dict[str, str]:
        """Provenance record for a result this process just produced.

        Worker id, host, backend label and a UTC timestamp — stored in
        a cache *sidecar* (never the result blob, which must stay
        byte-identical), and surfaced per entry by ``repro-cmp cache
        manifest``.  ``overrides`` patch individual fields (the socket
        coordinator records the remote worker's name, not its own).
        """
        now = datetime.datetime.now(datetime.timezone.utc)
        info = {
            "worker": self.worker_id,
            "host": socket.gethostname(),
            "backend": self.backend_label,
            "installed_at": now.isoformat(timespec="seconds"),
        }
        info.update(overrides)
        return info

    def point_provenance(self, point: SweepPoint, **overrides: str) -> Dict:
        """:meth:`provenance` plus the capture identity of trace points.

        For ``trace:`` workloads (including trace components of mixes)
        the record gains a ``traces`` table mapping each component to
        its resolved file, size, and sha256 — so a served
        ``/v1/provenance/<digest>`` answer identifies which capture
        produced the result.
        """
        info: Dict = self.provenance(**overrides)
        from ..traces.workload import trace_provenance

        refs = trace_provenance(point.workload, self.trace_root)
        if refs:
            info["traces"] = refs
        return info

    def install(
        self,
        point: SweepPoint,
        res: SimResult,
        energy: EnergyBreakdown,
        write_cache: bool = True,
        provenance: Optional[Dict[str, str]] = None,
    ) -> None:
        """Publish one point's results into the memo (and the disk cache).

        The parallel executor calls this with results received from
        workers; ``write_cache=False`` skips the disk write when the
        worker already persisted the entry itself.  ``provenance``
        (when given, and a cache is configured) is recorded as the
        entry's sidecar — pass it for freshly *simulated* results, not
        for cache/memo republications.
        """
        key = self.point_key(point)
        self._memo[key] = (res, energy)
        if write_cache and self.cache is not None:
            self.cache.put(key, encode_entry(res, energy))
        if provenance is not None and self.cache is not None:
            self.cache.put_provenance(key, provenance)

    def run_point(self, p: SweepPoint) -> PointResult:
        """Simulate (or load) one point; returns (result, energy)."""
        hit = self.lookup(p)
        if hit is not None:
            return hit
        ctx = self.context_for(p)
        if self.verbose:
            print(
                f"[sweep] simulating {p.describe()} (scale={ctx['scale']})",
                flush=True,
            )
        cfg = self.config_for(p)
        res = simulate(
            cfg,
            self._workload(p),
            warmup_fraction=float(ctx["warmup"]),
        )
        energy = EnergyModel(cfg).evaluate(res)
        self.install(p, res, energy, provenance=self.point_provenance(p))
        return res, energy

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics_for(self, p: SweepPoint) -> PointMetrics:
        """Metrics of one point relative to its baseline twin."""
        base_res, base_e = self.run_point(p.baseline_twin())
        res, e = self.run_point(p)
        return PointMetrics.for_point(p, base_res, base_e, res, e)

    def run_spec(
        self, spec: Union[ExperimentSpec, Iterable[SweepPoint]]
    ) -> List[PointMetrics]:
        """Metrics for every point a spec (or point list) describes.

        This is the seam figure code selects from: one flat, ordered
        metric list per scenario, each point paired against its baseline
        twin (simulated on demand when the spec does not list it).
        """
        points = (
            self.expand_spec(spec) if isinstance(spec, ExperimentSpec) else spec
        )
        return [self.metrics_for(p) for p in points]

    def sweep(
        self,
        benchmarks: Iterable[str] = PAPER_BENCHMARKS,
        sizes: Iterable[int] = PAPER_TOTAL_L2_MB,
        techniques: Optional[Iterable[str]] = None,
    ) -> List[PointMetrics]:
        """A (benchmarks × sizes × techniques) grid as a flat metric list."""
        techniques = list(techniques or paper_technique_order())
        return self.run_spec(self.points_for(benchmarks, sizes, techniques))

    def averaged(
        self, points: List[PointMetrics], attr: str
    ) -> Dict[Tuple[int, str], float]:
        """Average ``attr`` across benchmarks, keyed by (size, technique)."""
        sums: Dict[Tuple[int, str], List[float]] = {}
        for p in points:
            sums.setdefault((p.total_mb, p.technique), []).append(getattr(p, attr))
        return {k: sum(v) / len(v) for k, v in sums.items()}
