"""The sweep-backend seam: how a planned point list gets executed.

The sweep harness separates *what* to simulate from *how* to run it:
:meth:`~repro.harness.executor.ParallelSweepRunner.plan_points` produces
a deduplicated, baseline-first list of
:class:`~repro.harness.spec.SweepPoint` tasks, and
:meth:`~repro.harness.runner.SweepRunner.install` publishes each finished
result into the runner's memo and sharded
:class:`~repro.harness.result_cache.ResultCache`.  A backend is anything
that moves every pending point from "planned" to "installed" between
those two seams.  Points travel the wire in their canonical serialized
form (:meth:`SweepPoint.to_dict`), so a worker anywhere rebuilds exactly
the coordinator's point — same digest, same cache key.

Built-in backends:

* ``local`` — :class:`~repro.harness.backends.local.LocalBackend`, a
  :mod:`multiprocessing` pool on this host (the default);
* ``socket`` — :class:`~repro.harness.backends.socket_ws.SocketWorkStealingBackend`,
  a TCP coordinator that workers (local child processes or remote
  ``repro-cmp work`` shells) pull tasks from;
* ``batch`` — :class:`~repro.harness.backends.batch.BatchQueueBackend`,
  a task file plus manifest-driven ingest of per-worker cache shards,
  for queue systems and multi-host sync without open connections.

Every backend must preserve the harness invariant: the installed results
— and the cache blobs they serialize to — are **byte-identical** to a
serial sweep of the same points and seed, no matter how tasks were
distributed, retried after a crash, or installed more than once.

The distributed backends additionally participate in the fault-tolerance
layer: both accept a ``fault_plan``
(:class:`~repro.harness.faults.FaultPlan`) and a ``lease_timeout``, and
both publish a per-point :class:`~repro.harness.campaign.CampaignReport`
as :attr:`last_report` after :meth:`~SweepBackend.execute` — the
executor writes it next to the cache manifest.  ``last_report`` is an
optional attribute of the protocol: backends without retry machinery
(``local``) simply never set one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from ..spec import SweepPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runner import SweepRunner


class SweepBackend(Protocol):
    """Executes a planned task list against a sweep runner.

    Implementations receive the coordinating runner (for its parameters,
    cache, and ``install`` seam) plus the pending points, and return only
    after every point has been installed — raising if any point cannot
    be completed.  See ``docs/architecture.md`` for a writing-a-backend
    guide.
    """

    #: ``--backend`` name, e.g. ``"local"`` (class attribute on implementations)
    name: str

    def execute(
        self, runner: "SweepRunner", pending: Sequence[SweepPoint]
    ) -> int:
        """Run every point in ``pending`` and install its results.

        Returns the number of points executed (retries of the same point
        count once).  Must raise on unrecoverable failure rather than
        silently dropping points.
        """
        ...


def default_worker_id() -> str:
    """Default worker identity (host-pid), shared by every backend."""
    import os
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"

