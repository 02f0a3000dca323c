"""Batch-queue sweep execution: a task file plus cache-shard ingest.

Where the socket backend needs live connections, this backend needs only
a directory that hosts can sync (NFS, rsync, a CI artifact store)::

    <queue_dir>/
        tasks.json              # runner params + the planned points
        leases/
            <cache_key>.lease   # who is working on what (mtime-renewed)
        events/
            <worker_id>.jsonl   # claim/complete ledger -> campaign report
        results/
            <worker_id>/        # one ResultCache root per worker
                v9/...          #   sharded entries, standard layout
                v9/index.json   #   manifest, written when the worker ends

The coordinator *emits* ``tasks.json`` — runner params plus every
pending :class:`~repro.harness.spec.SweepPoint` in canonical dict form
(task format 2; format 1 carried bare string triples and is rejected) —
and then *ingests*: every cache root under ``results/`` is merged into
the runner's own :class:`~repro.harness.result_cache.ResultCache` via
:meth:`~repro.harness.result_cache.ResultCache.import_entries` — a
manifest-driven, byte-for-byte copy, so figure tables come out identical
to a serial sweep.

Workers (``repro-cmp work --queue-dir DIR`` anywhere the directory is
synced) *claim* points through the lease files of
:mod:`~repro.harness.backends.lease`: each worker walks the task list
in plan order, atomically claims the next point no live lease holds
(skipping held ones, as socket pullers do), renews the lease's mtime
while simulating, and releases it after publishing into its own shard.
A worker that dies mid-point leaves a lease that stops being renewed;
once it is ``lease_timeout`` stale, any live worker reclaims it.  After
the run the coordinator replays the workers' claim/complete ledgers
through a :class:`~repro.harness.backends.lease.LeaseTable` into the
campaign report.

Ingest is idempotent and crash-tolerant by construction: already-present
entries are skipped after a byte comparison, manifest rows whose blob
never arrived (a worker died before the copy) are counted as stale and
simply re-awaited, and a worker that reran a task produced the same bytes
anyway because points are deterministic.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..campaign import CampaignReport
from ..faults import FaultInjector, PlanLike, backoff_seconds, coerce_plan
from ..result_cache import MergeReport, ResultCache, atomic_write
from ..runner import CACHE_VERSION, SweepRunner, decode_entry
from ..spec import SweepPoint
from .base import default_worker_id
from .lease import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseTable,
    Renewer,
    claim_lease,
    lease_age,
    lease_path,
    log_event,
    read_events,
    read_lease,
    release_lease,
    renew_lease,
)

#: task-file name inside the queue directory
TASK_FILE = "tasks.json"

#: per-worker result roots live under this subdirectory
RESULTS_DIR = "results"

#: schema marker of the task file (2 = serialized SweepPoints)
TASK_FORMAT = 2


def write_task_file(
    queue_dir: str, params: dict, points: Sequence[SweepPoint]
) -> str:
    """Atomically publish the task file for a planned sweep."""
    payload = {
        "format": TASK_FORMAT,
        "cache_version": CACHE_VERSION,
        "params": params,
        "points": [point.to_dict() for point in points],
    }
    return atomic_write(
        os.path.join(queue_dir, TASK_FILE),
        json.dumps(payload, indent=1, sort_keys=True).encode("utf-8"),
    )


def read_task_file(queue_dir: str) -> dict:
    """Load and validate the queue's task file (points are rebuilt)."""
    path = os.path.join(queue_dir, TASK_FILE)
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != TASK_FORMAT:
        raise ValueError(
            f"{path}: unsupported task-file format {payload.get('format')!r}"
            f" (this build reads format {TASK_FORMAT})"
        )
    if payload.get("cache_version") != CACHE_VERSION:
        raise ValueError(
            f"{path}: task file targets cache v{payload.get('cache_version')}"
            f", this build writes v{CACHE_VERSION}"
        )
    payload["points"] = [
        SweepPoint.from_dict(entry) for entry in payload["points"]
    ]
    return payload


def worker_result_dir(queue_dir: str, worker_id: str) -> str:
    """Cache root a batch worker writes into."""
    return os.path.join(queue_dir, RESULTS_DIR, worker_id)


def list_worker_result_dirs(queue_dir: str) -> List[str]:
    """Every per-worker cache root currently present, sorted."""
    root = os.path.join(queue_dir, RESULTS_DIR)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    return [
        os.path.join(root, name)
        for name in names
        if os.path.isdir(os.path.join(root, name))
    ]


def _settled_elsewhere(queue_dir: str, worker_id: str, key: str) -> bool:
    """Whether some *other* worker's shard already holds ``key``."""
    for shard_dir in list_worker_result_dirs(queue_dir):
        if os.path.basename(shard_dir) == worker_id:
            continue
        if ResultCache(shard_dir, CACHE_VERSION).read_bytes(key) is not None:
            return True
    return False


def run_batch_worker(
    queue_dir: str,
    worker_id: Optional[str] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    fault_plan: Optional[dict] = None,
) -> int:
    """Work the queue's task file until every point is settled somewhere.

    Points are claimed through lease files, so any number of workers may
    run this concurrently (or join late): each walks the task list in
    plan order and skips points a live lease holds, each point is
    simulated by whoever claims it, a claim is renewed while the
    simulation runs, and a dead worker's stale claim is reclaimed by the
    survivors.

    ``fault_plan`` (dict form of a
    :class:`~repro.harness.faults.FaultPlan`) drives the chaos tests:
    receipt faults (``kill``/``hang``/``drop``) and ``delay`` apply
    here; ``corrupt``/``duplicate`` are wire faults, meaningful only on
    the socket backend.  Results land in the worker's own cache root,
    and a manifest snapshot is written at the end to mark the shard
    complete.  Returns the number of points simulated (cached points
    are free).
    """
    payload = read_task_file(queue_dir)
    wid = worker_id or default_worker_id()
    injector = FaultInjector(fault_plan, wid)
    runner = SweepRunner(
        verbose=False,
        cache_dir=worker_result_dir(queue_dir, wid),
        **payload["params"],
    )
    runner.backend_label = "batch"
    runner.worker_id = wid
    renew_interval = max(0.05, lease_timeout / 4.0)
    done = 0
    idle_rounds = 0
    while True:
        progressed = False
        contended = False
        for point in payload["points"]:
            if runner.lookup(point) is not None:
                continue
            key = runner.point_key(point)
            if _settled_elsewhere(queue_dir, wid, key):
                continue
            kind = claim_lease(queue_dir, key, wid, lease_timeout)
            if kind is None:
                contended = True  # live lease elsewhere: retry later
                continue
            log_event(
                queue_dir,
                wid,
                {
                    "event": "claim",
                    "kind": kind,
                    "digest": key,
                    "point": point.describe(),
                    "t": time.time(),
                },
            )
            # a kill exits and leaves the lease to go stale; a timed hang
            # sleeps without renewing (the point migrates to a live
            # worker), then re-scans; a drop, the connectionless analogue
            # of a dropped connection, abandons the claim at once
            fault = injector.apply_receipt()
            if fault is not None:
                if fault == "drop":
                    release_lease(queue_dir, key, wid)
                contended = True
                continue
            renewer = Renewer(
                partial(renew_lease, queue_dir, key, wid), renew_interval
            )
            renewer.start()
            try:
                runner.run_point(point)
                delivery = injector.on_delivery()
                if delivery is not None and delivery.kind == "delay":
                    # slow, not dead: the renewer carries the lease
                    time.sleep(delivery.seconds)
            except Exception:
                release_lease(queue_dir, key, wid)
                raise
            finally:
                renewer.shutdown()
            release_lease(queue_dir, key, wid)
            log_event(
                queue_dir,
                wid,
                {
                    "event": "complete",
                    "digest": key,
                    "point": point.describe(),
                    "t": time.time(),
                },
            )
            done += 1
            progressed = True
        if not contended:
            break  # every point settled in some shard
        if progressed:
            idle_rounds = 0
        else:
            # someone else holds the remaining leases: back off, then
            # re-check (a stale lease becomes reclaimable on its own)
            time.sleep(
                backoff_seconds(
                    idle_rounds,
                    base=0.05,
                    cap=max(0.05, min(1.0, lease_timeout / 2)),
                    rng=injector.rng,
                )
            )
            idle_rounds += 1
    runner.cache.write_manifest()
    return done


class BatchQueueBackend:
    """Emit a task file, then ingest completed shards until done.

    With ``spawn_workers > 0`` the backend runs that many batch workers
    as local child processes (lease-claiming passes over the task file) —
    the single-host proof of the full emit → work → ingest cycle, and
    what the tests diff against the serial runner.  A spawned worker
    that dies is not fatal as long as the survivors finish its points
    via lease reclaim.  With ``spawn_workers = 0`` it polls
    ``results/`` with exponential backoff (1 s doubling to 8 s),
    ingesting whatever synced-in shards appeared, until the matrix is
    complete or ``timeout`` elapses — and the timeout error names the
    outstanding points and who leases them.  After :meth:`execute`,
    :attr:`last_report` holds the per-point
    :class:`~repro.harness.campaign.CampaignReport` aggregated from the
    workers' event ledgers.
    """

    name = "batch"

    def __init__(
        self,
        queue_dir: str = ".repro_queue",
        spawn_workers: int = 2,
        timeout: Optional[float] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        fault_plan: PlanLike = None,
    ) -> None:
        self.queue_dir = queue_dir
        self.spawn_workers = spawn_workers
        self.timeout = timeout
        self.lease_timeout = float(lease_timeout)
        self.fault_plan = coerce_plan(fault_plan)
        #: merge reports accumulated by the last :meth:`execute`
        self.last_reports: List[MergeReport] = []
        #: per-point ledger of the last :meth:`execute`
        self.last_report: Optional[CampaignReport] = None

    # ------------------------------------------------------------------
    def collect(
        self, runner: SweepRunner, pending: Sequence[SweepPoint]
    ) -> List[SweepPoint]:
        """Ingest every present shard; return the still-missing points.

        When the runner has a disk cache, shards are merged into it
        byte-for-byte (the multi-host sync path); either way, decoded
        results are installed into the runner's memo so figure code can
        run immediately.  Keys already installed are excluded from the
        merge, so re-polling a slow queue costs a directory listing per
        shard, not a re-read of everything already ingested; only merge
        rounds that did something are kept in :attr:`last_reports`.
        """
        worker_dirs = list_worker_result_dirs(self.queue_dir)
        worker_caches = [ResultCache(d, CACHE_VERSION) for d in worker_dirs]
        if runner.cache is not None:
            settled = {
                runner.point_key(point)
                for point in pending
                if runner.lookup(point) is not None
            }
            for cache in worker_caches:
                report = runner.cache.import_entries(cache, exclude=settled)
                if report.examined or report.stale_manifest or report.corrupt:
                    self.last_reports.append(report)
        missing: List[SweepPoint] = []
        for point in pending:
            if runner.lookup(point) is not None:
                continue
            key = runner.point_key(point)
            blob = self._read_shard_entry(worker_caches, key)
            if blob is None:
                missing.append(point)
                continue
            try:
                res, energy = decode_entry(blob)
            except (KeyError, TypeError, ValueError):
                # JSON-valid but schema-invalid shard entry: skip it like
                # the corrupt-JSON path and keep awaiting a good copy
                missing.append(point)
                continue
            runner.install(point, res, energy)
        return missing

    @staticmethod
    def _read_shard_entry(
        worker_caches: Sequence[ResultCache], key: str
    ) -> Optional[dict]:
        """Load ``key`` from the first shard that has a parseable copy.

        Deliberately *not* :meth:`ResultCache.get`: that method deletes
        corrupt entries, and worker shards belong to their workers — a
        half-synced blob must be skipped, not unlinked, so a later sync
        can complete it.
        """
        for cache in worker_caches:
            data = cache.read_bytes(key)
            if data is None:
                continue
            try:
                blob = json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(blob, dict):
                return blob
        return None

    # ------------------------------------------------------------------
    def _outstanding_summary(
        self, runner: SweepRunner, missing: Sequence[SweepPoint], limit: int = 10
    ) -> str:
        """Name the missing points and who (if anyone) leases them."""
        lines = []
        for point in list(missing)[:limit]:
            path = lease_path(self.queue_dir, runner.point_key(point))
            holder = read_lease(path)
            age = lease_age(path)
            if holder is not None and age is not None:
                lines.append(
                    f"{point.describe()} (leased by "
                    f"{holder.get('worker', '?')}, renewed {age:.0f}s ago)"
                )
            else:
                lines.append(f"{point.describe()} (unclaimed)")
        if len(missing) > limit:
            lines.append(f"... and {len(missing) - limit} more")
        return "; ".join(lines)

    def _campaign_report(
        self, runner: SweepRunner, pending: Sequence[SweepPoint]
    ) -> CampaignReport:
        """Replay the workers' event ledgers through a :class:`LeaseTable`.

        Ledgers are read in worker-name order; the replay sorts their
        events by time stamp, so a reclaim follows the claim it broke.
        A completion counts once its result is installed.
        """
        by_key = {runner.point_key(point): point for point in pending}
        table = LeaseTable(pending, self.lease_timeout)
        stats = {"claims": 0, "reclaimed": 0, "completions": 0}

        def stamp(event: dict) -> float:
            t = event.get("t")
            return t if isinstance(t, (int, float)) else 0.0

        for event in sorted(read_events(self.queue_dir), key=stamp):
            point = by_key.get(event.get("digest"))
            if point is None:
                continue
            worker = str(event.get("worker", "?"))
            if event.get("event") == "claim":
                stats["claims"] += 1
                if event.get("kind") == "reclaimed":
                    stats["reclaimed"] += 1
                    table.requeue(point, f"stale lease reclaimed by {worker}")
                table.claim(worker, stamp(event), point)
            elif event.get("event") == "complete":
                stats["completions"] += 1
                if runner.lookup(point) is not None:
                    table.complete(point, worker)
        return table.report("batch", stats)

    def _spawn_and_wait(
        self, deadline: Optional[float]
    ) -> Tuple[List[str], bool]:
        """Run ``spawn_workers`` lease-claiming workers; gather losses.

        ``deadline`` is a :func:`time.monotonic` timestamp; workers still
        alive past it are terminated.  Returns ``(failures, timed_out)``
        — a dead worker is *reported*, not fatal: whether the sweep
        survived it is decided by what :meth:`collect` finds afterwards.
        """
        plan_dict = self.fault_plan.to_dict() if self.fault_plan else None
        procs = []
        for i in range(self.spawn_workers):
            proc = multiprocessing.Process(
                target=run_batch_worker,
                args=(self.queue_dir,),
                kwargs={
                    "worker_id": f"batch-{i}",
                    "lease_timeout": self.lease_timeout,
                    "fault_plan": plan_dict,
                },
            )
            proc.start()
            procs.append(proc)
        failures = []
        timed_out = False
        for i, proc in enumerate(procs):
            if deadline is None:
                proc.join()
            else:
                proc.join(max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(10)
                    timed_out = True
                    continue
            if proc.exitcode != 0:
                failures.append(f"batch-{i} exited {proc.exitcode}")
        return failures, timed_out

    def execute(
        self, runner: SweepRunner, pending: Sequence[SweepPoint]
    ) -> int:
        """Publish the task file and ingest shards until all installed."""
        pending = list(pending)
        if not pending:
            return 0
        self.last_reports = []
        self.last_report = None
        params = runner.runner_params()
        write_task_file(self.queue_dir, params, pending)
        if runner.verbose:
            print(
                f"[sweep:batch] {len(pending)} points queued in "
                f"{self.queue_dir} ({self.spawn_workers} local workers, "
                f"lease {self.lease_timeout:g}s)",
                flush=True,
            )
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        if self.spawn_workers:
            failures, timed_out = self._spawn_and_wait(deadline)
            missing = self.collect(runner, pending)
            self.last_report = self._campaign_report(runner, pending)
            if timed_out:
                raise TimeoutError(
                    f"batch workers still running after {self.timeout}s; "
                    f"terminated (partial shards kept in {self.queue_dir})"
                )
            if missing:
                detail = self._outstanding_summary(runner, missing)
                note = (
                    f" (worker failures: {'; '.join(failures)})"
                    if failures
                    else ""
                )
                raise RuntimeError(
                    f"batch workers finished but left points missing: "
                    f"{detail}{note}"
                )
            if failures and runner.verbose:
                print(
                    f"[sweep:batch] survived worker losses: "
                    f"{'; '.join(failures)} (their points migrated)",
                    flush=True,
                )
            return len(pending)
        idle_rounds = 0
        last_missing = len(pending) + 1
        while True:
            missing = self.collect(runner, pending)
            if not missing:
                self.last_report = self._campaign_report(runner, pending)
                return len(pending)
            if deadline is not None and time.monotonic() >= deadline:
                self.last_report = self._campaign_report(runner, pending)
                raise TimeoutError(
                    f"batch sweep timed out with {len(missing)} of "
                    f"{len(pending)} points missing from {self.queue_dir}: "
                    f"{self._outstanding_summary(runner, missing)}"
                )
            if len(missing) < last_missing:
                idle_rounds = 0  # progress resets the backoff
            last_missing = len(missing)
            if runner.verbose:
                print(
                    f"[sweep:batch] waiting: {len(missing)} points missing",
                    flush=True,
                )
            time.sleep(backoff_seconds(idle_rounds, base=1.0, cap=8.0))
            idle_rounds += 1

