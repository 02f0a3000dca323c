"""Parallel sweep-execution engine.

:class:`ParallelSweepRunner` plans a point list — a grid, or an expanded
:class:`~repro.harness.spec.ExperimentSpec` — and hands the uncached
:class:`~repro.harness.spec.SweepPoint` tasks to a pluggable
:class:`~repro.harness.backends.base.SweepBackend` for execution.  Design
points:

* **determinism** — every point is keyed by the digest of its canonical
  serialized form resolved against the effective runner context; each
  worker rebuilds the workload from the same seed, so a point's
  :class:`~repro.sim.stats.SimResult` is byte-identical no matter which
  worker runs it, in what order, or whether it ran serially;
* **baseline-first scheduling** — :meth:`plan_points` orders the unique
  baseline twins ahead of every technique point, so the (baseline,
  technique) pairs that relative metrics need are never blocked behind
  unrelated work and an interrupted sweep leaves the most reusable cache;
  within each tier, same-stream points run back to back, so a worker
  builds each workload stream's memo once per tier;
* **pluggable execution** — the default backend is the local
  :mod:`multiprocessing` pool
  (:class:`~repro.harness.backends.local.LocalBackend`); ``--backend
  socket`` distributes the same plan to pull-workers over TCP, and
  ``--backend batch`` to task-file workers synced through the cache
  manifest.  All of them install results through
  :meth:`~repro.harness.runner.SweepRunner.install`, the seam that keeps
  every execution strategy byte-identical to the serial runner.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..sim.config import PAPER_TOTAL_L2_MB, paper_technique_order
from ..workloads.registry import PAPER_BENCHMARKS
from .backends import (
    LocalBackend,
    SweepBackend,
    make_backend,
    resolve_jobs,
)
from .metrics import PointMetrics
from .runner import DEFAULT_WARMUP, SweepRunner
from .spec import ExperimentSpec, SweepPoint

__all__ = ["ParallelSweepRunner", "resolve_jobs"]


class ParallelSweepRunner(SweepRunner):
    """A :class:`SweepRunner` that executes point lists through a backend.

    Drop-in compatible: ``metrics_for``/``run_point`` behave exactly like
    the serial runner (and serve from the shared memo/cache), while
    :meth:`run_spec`, :meth:`sweep` and :meth:`prefetch` fan uncached
    points out through the configured backend.  Results are
    byte-identical to a serial sweep of the same points and seed
    whatever the backend.
    """

    def __init__(
        self,
        scale: float = 0.1,
        seed: int = 1,
        n_cores: int = 4,
        warmup_fraction: float = DEFAULT_WARMUP,
        cache_dir: Optional[str] = ".repro_cache",
        verbose: bool = True,
        jobs: Optional[int] = None,
        backend: Union[SweepBackend, str, None] = None,
        trace_root: Optional[str] = None,
    ) -> None:
        super().__init__(
            scale=scale,
            seed=seed,
            n_cores=n_cores,
            warmup_fraction=warmup_fraction,
            cache_dir=cache_dir,
            verbose=verbose,
            trace_root=trace_root,
        )
        self.jobs = resolve_jobs(jobs)
        if backend is None or backend == "local":
            backend = LocalBackend(jobs=self.jobs)
        elif isinstance(backend, str):
            # other names get default-configured instances; pass a
            # constructed backend to control spawn counts/ports/queues
            backend = make_backend(backend)
        self.backend = backend
        self.backend_label = getattr(backend, "name", "local")

    # ------------------------------------------------------------------
    def plan_points(self, points: Iterable[SweepPoint]) -> List[SweepPoint]:
        """Deduplicated task list with every baseline twin first.

        Relative metrics pair each point with its baseline twin, so
        baselines are the highest-fanout results; scheduling them first
        keeps metric computation unblocked however the backend
        interleaves the rest.  Deduplication is by cache key, so a point
        with overrides equal to the runner's defaults collapses with its
        override-free twin.

        Within each tier, points are stable-grouped by
        :meth:`~repro.harness.runner.SweepRunner.stream_key`, in order
        of first appearance: a worker pulling the plan in order runs
        same-stream points back to back and builds each stream's memo
        once per tier.
        """
        points = list(points)
        baselines: List[SweepPoint] = []
        rest: List[SweepPoint] = []
        seen: set = set()
        for p in points:
            twin = p.baseline_twin()
            key = self.point_key(twin)
            if key not in seen:
                seen.add(key)
                baselines.append(twin)
        for p in points:
            key = self.point_key(p)
            if key not in seen:
                seen.add(key)
                rest.append(p)
        return self._by_stream(baselines) + self._by_stream(rest)

    def _by_stream(self, points: List[SweepPoint]) -> List[SweepPoint]:
        """Stable grouping of ``points`` by stream key."""
        groups: Dict[str, List[SweepPoint]] = {}
        for p in points:
            groups.setdefault(self.stream_key(p), []).append(p)
        return [p for group in groups.values() for p in group]

    def plan(
        self,
        benchmarks: Iterable[str],
        sizes: Iterable[int],
        techniques: Iterable[str],
    ) -> List[SweepPoint]:
        """Baseline-first plan of a (benchmarks × sizes × techniques) grid."""
        return self.plan_points(self.points_for(benchmarks, sizes, techniques))

    # ------------------------------------------------------------------
    def prefetch_points(self, points: Iterable[SweepPoint]) -> int:
        """Simulate every uncached point of a list on the backend.

        The plan includes each point's baseline twin.  Returns the
        number of points actually simulated; after this, ``metrics_for``
        over the same points is a pure memo lookup.  Backends that
        account per point (socket, batch) leave a
        :class:`~repro.harness.campaign.CampaignReport` which is
        published as ``campaign.json`` next to the cache manifest —
        also when the backend raised, so a failed campaign still says
        what happened.
        """
        pending = [
            p for p in self.plan_points(points) if self.lookup(p) is None
        ]
        if not pending:
            return 0
        try:
            self.backend.execute(self, pending)
        finally:
            self._publish_campaign_report()
        return len(pending)

    def _publish_campaign_report(self) -> None:
        """Write the backend's per-point ledger beside the manifest."""
        report = getattr(self.backend, "last_report", None)
        if report is None:
            return
        if self.cache is not None:
            report.write(self.cache.version_dir())
        if self.verbose:
            if report.eventful:
                print(report.render(eventful_only=True), flush=True)
            else:
                print(report.summary(), flush=True)

    def prefetch(
        self,
        benchmarks: Iterable[str] = PAPER_BENCHMARKS,
        sizes: Iterable[int] = PAPER_TOTAL_L2_MB,
        techniques: Optional[Iterable[str]] = None,
    ) -> int:
        """Grid convenience wrapper around :meth:`prefetch_points`."""
        techniques = list(techniques or paper_technique_order())
        return self.prefetch_points(
            self.points_for(benchmarks, sizes, techniques)
        )

    # ------------------------------------------------------------------
    def run_spec(
        self, spec: Union[ExperimentSpec, Iterable[SweepPoint]]
    ) -> List[PointMetrics]:
        """Backend-parallel version of :meth:`SweepRunner.run_spec`.

        Simulates the spec's points through the backend, then assembles
        metrics in the serial runner's deterministic order — the
        returned list compares equal, element by element, to the serial
        result.
        """
        points = (
            self.expand_spec(spec) if isinstance(spec, ExperimentSpec) else list(spec)
        )
        self.prefetch_points(points)
        return super().run_spec(points)
