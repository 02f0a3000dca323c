"""Work leases for the distributed backends: one state machine, two stores.

Both distributed backends lease points instead of assigning them, and
every point moves through one state machine, :class:`LeaseTable`.  The
socket coordinator drives a table live from its worker connections.
The batch queue has no coordinator process while workers run — hosts
share nothing but a synced directory — so there the mutual exclusion
lives in lease files, and the coordinator rebuilds the table after the
run by replaying the workers' event ledgers.  On the worker side of
both, a :class:`Renewer` thread renews the lease in flight, so a *slow*
point is distinguishable from a *dead* worker.

Batch leases are one JSON file per point::

    <queue_dir>/leases/<cache_key>.lease      # {"worker": <id>}
    <queue_dir>/events/<worker_id>.jsonl      # claim/complete ledger

The file protocol:

* **Claim** — creating the lease file with ``O_CREAT | O_EXCL`` is the
  atomic fresh claim (exactly one creator wins).  An *existing* lease
  whose mtime is older than the lease timeout is stale — its worker
  died or wedged — and any live worker may take it over by atomically
  replacing the file (``os.replace``) and reading back ownership.
* **Renew** — the holder touches the file's mtime (``os.utime``) a few
  times per timeout window.
* **Release** — the holder unlinks the file after publishing the
  result into its shard.

Two workers can, in a narrow window, both believe they reclaimed the
same stale lease (replace/read-back interleaving).  That is accepted by
design: points are deterministic and installation byte-identical, so a
double claim wastes one simulation and corrupts nothing — the lease is
an efficiency mechanism, and the result cache is the correctness
mechanism.  The event ledger is append-only, one file per worker (no
cross-host write contention).
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..campaign import CampaignReport, PointRecord
from ..result_cache import atomic_write
from ..spec import SweepPoint

#: lease files live under this queue subdirectory
LEASES_DIR = "leases"

#: per-worker event ledgers live under this queue subdirectory
EVENTS_DIR = "events"

#: seconds an unrenewed lease stays valid (both backends)
DEFAULT_LEASE_TIMEOUT = 60.0


class LeaseTable:
    """Per-point lease state: queued → leased → completed | failed.

    A claim leases a queued point to a worker until ``now +
    lease_timeout``.  A requeue (a lost, rejected or silent worker) puts
    it back in the queue, or fails it once it has been attempted
    ``max_attempts`` times (``None``: never).  A completion settles a
    point, also a failed one.  Each point's :class:`PointRecord` in
    :attr:`records` (plan order) is its state.  The table is not
    thread-safe; the socket coordinator calls it under its lock.
    """

    def __init__(
        self,
        points: Iterable[SweepPoint],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: Optional[int] = None,
    ) -> None:
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = max_attempts
        self.records: Dict[SweepPoint, PointRecord] = {
            point: PointRecord(point=point.describe(), digest=point.digest())
            for point in points
        }
        self._queue = deque(self.records)
        #: leased point -> (holding worker, deadline)
        self._leases: Dict[SweepPoint, Tuple[str, float]] = {}

    @property
    def done(self) -> bool:
        """Whether every point is completed or failed."""
        return all(r.status != "pending" for r in self.records.values())

    def claim(
        self, worker: str, now: float, point: Optional[SweepPoint] = None
    ) -> Optional[SweepPoint]:
        """Lease ``point``, or the next queued one, to ``worker``.

        Counts one attempt; ``None`` when nothing is queued.
        """
        if point is None:
            if not self._queue:
                return None
            point = self._queue.popleft()
        elif point in self._queue:
            self._queue.remove(point)
        self._leases[point] = (worker, now + self.lease_timeout)
        self.records[point].attempts += 1
        return point

    def renew(self, point: SweepPoint, worker: str, now: float) -> bool:
        """Extend ``worker``'s lease on ``point``; ``False`` if not held."""
        lease = self._leases.get(point)
        if lease is None or lease[0] != worker:
            return False
        self._leases[point] = (worker, now + self.lease_timeout)
        return True

    def expired(self, now: float) -> List[Tuple[SweepPoint, str]]:
        """Requeue every lapsed lease; the ``(point, worker)`` pairs requeued."""
        lapsed = [(p, w) for p, (w, end) in self._leases.items() if end <= now]
        return [
            (point, worker)
            for point, worker in lapsed
            if self.requeue(
                point,
                f"lease expired after {self.lease_timeout:.1f}s "
                f"(worker {worker} silent)",
                worker,
            )
        ]

    def requeue(
        self, point: SweepPoint, reason: str, worker: Optional[str] = None
    ) -> bool:
        """Release the lease on ``point``; whether the point was queued again.

        With ``worker`` given, only that worker's lease is released: a
        worker whose lease already expired (and was perhaps served to
        another) must not requeue the point a second time.  ``reason`` is
        recorded; at ``max_attempts`` the point is failed instead.
        """
        lease = self._leases.get(point)
        if lease is None or worker not in (None, lease[0]):
            return False
        del self._leases[point]
        record = self.records[point]
        record.reasons.append(reason)
        if record.status == "completed":
            return False
        if self.max_attempts is not None and record.attempts >= self.max_attempts:
            record.status = "failed"
            return False
        record.requeues += 1
        self._queue.append(point)
        return True

    def complete(self, point: SweepPoint, worker: str) -> bool:
        """Settle ``point``; whether this was its first completion.

        A requeued point can complete twice; only the first completion
        records its producer.
        """
        record = self.records[point]
        self._leases.pop(point, None)
        if point in self._queue:
            self._queue.remove(point)
        if record.status == "completed":
            return False
        record.status = "completed"
        record.worker = worker
        return True

    def report(self, backend: str, stats: Dict[str, int]) -> CampaignReport:
        """Snapshot every point's record as a :class:`CampaignReport`."""
        records = copy.deepcopy(list(self.records.values()))
        return CampaignReport(backend=backend, records=records, stats=dict(stats))


class Renewer(threading.Thread):
    """Daemon that renews one lease while its simulation runs.

    Calls ``renew_fn`` every ``interval`` seconds until :meth:`shutdown`,
    and stops on its own when ``renew_fn`` returns ``False`` (the lease
    was lost: renewing a stolen lease would let two workers fence over
    it forever) or raises :class:`OSError` (the holder is unreachable).
    """

    def __init__(self, renew_fn: Callable[[], bool], interval: float) -> None:
        super().__init__(daemon=True)
        self.renew_fn = renew_fn
        self.interval = interval
        self._halt = threading.Event()

    def shutdown(self) -> None:
        """Stop renewing (the simulation finished)."""
        self._halt.set()

    def run(self) -> None:
        """Renew every ``interval`` seconds until stopped or lost."""
        try:
            while not self._halt.wait(self.interval) and self.renew_fn():
                pass
        except OSError:
            return


def lease_path(queue_dir: str, key: str) -> str:
    """The lease file guarding one cache key."""
    return os.path.join(queue_dir, LEASES_DIR, key + ".lease")


def read_lease(path: str) -> Optional[Dict]:
    """The lease document at ``path``, or ``None`` (absent/garbled)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def lease_age(path: str) -> Optional[float]:
    """Seconds since the lease was last renewed, or ``None`` if absent."""
    try:
        return max(0.0, time.time() - os.stat(path).st_mtime)
    except OSError:
        return None


def claim_lease(
    queue_dir: str,
    key: str,
    worker: str,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
) -> Optional[str]:
    """Try to claim ``key`` for ``worker``.

    Returns ``"fresh"`` (unclaimed point, or re-entering our own live
    lease after a restart), ``"reclaimed"`` (took over a stale lease),
    or ``None`` (someone else holds a live lease — back off and retry).
    """
    path = lease_path(queue_dir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = (json.dumps({"worker": worker}) + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        with os.fdopen(fd, "wb") as fh:
            fh.write(doc)
        return "fresh"
    age = lease_age(path)
    if age is None:
        # the holder released between our open and stat: contended
        # moment, let the next round claim it cleanly
        return None
    holder = read_lease(path)
    if holder is not None and holder.get("worker") == worker:
        os.utime(path)  # our own lease (restart with a stable id)
        return "fresh"
    if age <= lease_timeout:
        return None
    # stale: take it over, then verify the takeover stuck (a concurrent
    # reclaimer may have replaced the file after us — last writer wins)
    atomic_write(path, doc)
    mine = read_lease(path)
    if mine is not None and mine.get("worker") == worker:
        return "reclaimed"
    return None


def renew_lease(queue_dir: str, key: str, worker: str) -> bool:
    """Touch ``worker``'s lease on ``key``; ``False`` if no longer held."""
    path = lease_path(queue_dir, key)
    holder = read_lease(path)
    if holder is None or holder.get("worker") != worker:
        return False
    try:
        os.utime(path)
    except OSError:
        return False
    return True


def release_lease(queue_dir: str, key: str, worker: str) -> None:
    """Drop ``worker``'s lease on ``key`` (no-op if not the holder)."""
    path = lease_path(queue_dir, key)
    holder = read_lease(path)
    if holder is not None and holder.get("worker") == worker:
        try:
            os.unlink(path)
        except OSError:
            pass


def log_event(queue_dir: str, worker: str, event: Dict) -> None:
    """Append one record to ``worker``'s event ledger."""
    root = os.path.join(queue_dir, EVENTS_DIR)
    os.makedirs(root, exist_ok=True)
    line = json.dumps(dict(event, worker=worker), sort_keys=True) + "\n"
    with open(
        os.path.join(root, worker + ".jsonl"), "a", encoding="utf-8"
    ) as fh:
        fh.write(line)


def read_events(queue_dir: str) -> List[Dict]:
    """Every worker's ledger records (unparseable lines are skipped)."""
    root = os.path.join(queue_dir, EVENTS_DIR)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    events: List[Dict] = []
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            continue
        for line in lines:
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict):
                events.append(doc)
    return events
