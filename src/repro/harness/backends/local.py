"""Local multiprocessing backend (the default sweep executor).

This is PR 1's worker pool refactored behind the
:class:`~repro.harness.backends.base.SweepBackend` protocol: a
:mod:`multiprocessing` pool whose initializer builds one serial
:class:`~repro.harness.runner.SweepRunner` per worker process (amortizing
workload construction), with completed points streamed back to the parent
in the serialized cache-entry format so installation is byte-identical to
a serial run.  Tasks cross the process boundary in the point's canonical
dict form (:meth:`~repro.harness.spec.SweepPoint.to_dict`) — the same
wire format the socket and batch backends use.  Workers write straight
into the shared on-disk cache when one is configured; the parent then
skips the redundant write.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Optional, Sequence, Tuple

from ..runner import SweepRunner, decode_entry, encode_entry
from ..spec import SweepPoint
from .base import register_backend

#: per-worker serial runner, created once by the pool initializer
_WORKER_RUNNER: Optional[SweepRunner] = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for a ``--jobs`` value (``None``/``0`` = all cores)."""
    if jobs is None or jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def _init_worker(params: dict) -> None:
    """Pool initializer: build this worker's serial runner."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = SweepRunner(verbose=False, **params)
    _WORKER_RUNNER.backend_label = "local"


def _run_point(point_dict: dict) -> Tuple[dict, dict, dict]:
    """Execute one sweep point in a pool worker.

    Receives the point's serialized dict and returns it with the
    *serialized* result/energy blobs — exactly the cache-entry format —
    so the parent reconstructs results the same way a cache hit would,
    keeping serial and parallel sweeps byte-identical.
    """
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    point = SweepPoint.from_dict(point_dict)
    try:
        res, energy = _WORKER_RUNNER.run_point(point)
    except Exception as exc:
        raise RuntimeError(
            f"sweep point {point.describe()} failed: {exc}"
        ) from exc
    blob = encode_entry(res, energy)
    return point_dict, blob["result"], blob["energy"]


class LocalBackend:
    """Process-pool execution on this host.

    ``jobs`` follows the CLI convention (``None``/``0`` = all cores);
    a single pending point, or ``jobs=1``, takes an inline no-pool fast
    path through :meth:`~repro.harness.runner.SweepRunner.run_point`.
    """

    name = "local"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)

    def execute(
        self, runner: SweepRunner, pending: Sequence[SweepPoint]
    ) -> int:
        """Fan ``pending`` out across the worker pool (or run inline)."""
        pending = list(pending)
        if not pending:
            return 0
        if self.jobs == 1 or len(pending) == 1:
            for point in pending:
                runner.run_point(point)
            return len(pending)
        params = runner.runner_params(cache_dir=runner.cache_dir)
        n_workers = min(self.jobs, len(pending))
        if runner.verbose:
            print(
                f"[sweep] {len(pending)} points on {n_workers} workers "
                f"(scale={runner.scale})",
                flush=True,
            )
        with multiprocessing.Pool(
            processes=n_workers,
            initializer=_init_worker,
            initargs=(params,),
        ) as pool:
            done = 0
            for point_d, result_d, energy_d in pool.imap_unordered(
                _run_point, [p.to_dict() for p in pending], chunksize=1
            ):
                point = SweepPoint.from_dict(point_d)
                res, energy = decode_entry(
                    {"result": result_d, "energy": energy_d}
                )
                # the worker already persisted the entry when caching is on
                runner.install(
                    point, res, energy, write_cache=runner.cache is None
                )
                done += 1
                if runner.verbose:
                    print(
                        f"[sweep] {done}/{len(pending)} done: "
                        f"{point.describe()}",
                        flush=True,
                    )
        return len(pending)


register_backend("local", LocalBackend)
