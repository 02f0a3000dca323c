"""Work-stealing sweep execution over TCP, with deadline leases.

A coordinator (:class:`SocketWorkStealingBackend`, or the ``repro-cmp
serve`` command) owns the planned task list and serves it over a tiny
newline-delimited-JSON protocol; workers — child processes spawned by the
backend, or ``repro-cmp work host:port`` shells on any machine — *pull*
tasks one at a time, simulate them with a local serial runner, and stream
the serialized results back.  Pulling is what makes the schedule
work-stealing: a fast worker drains more of the queue, and a task whose
worker fails mid-flight is simply requeued for the next puller.

Protocol (one JSON object per line, worker → coordinator unless noted)::

    {"op": "hello", "worker": <name>}
        -> {"op": "welcome", "proto": 3, "params": {...runner params...},
            "lease_timeout": s, "heartbeat_interval": s}
    {"op": "get"}
        -> {"op": "task", "point": {...SweepPoint.to_dict()...}}
         | {"op": "wait", "seconds": s}     # queue empty, leases pending
         | {"op": "done"}                   # matrix complete, disconnect
    {"op": "heartbeat", "worker": <name>, "point": {...}}
        (one-way: renews the lease, never answered)
    {"op": "result", "point": {...}, "result": {...}, "energy": {...}}
        -> {"op": "ack"} | {"op": "reject", "error": <text>}
    {"op": "error", "point": {...}, "message": <text>}
        -> {"op": "ack"}

Protocol 3 adds fault tolerance on top of protocol 2's serialized
:class:`~repro.harness.spec.SweepPoint` tasks: the welcome carries
``lease_timeout`` and ``heartbeat_interval``.  The coordinator and the
worker ship in one package, so a worker accepts a protocol-3 welcome
only.  The fault-tolerance pass:

* **Deadline leases** — every served task carries a lease of
  ``lease_timeout`` seconds in the coordinator's
  :class:`~repro.harness.backends.lease.LeaseTable`; a worker's
  :class:`~repro.harness.backends.lease.Renewer` renews it by heartbeat
  mid-simulation.  A hung-but-connected worker stops heartbeating, its
  lease expires, and the coordinator requeues the point (with attempt
  accounting) instead of waiting on a TCP close that never comes.
* **Backoff wait advice** — an idle worker is told to sleep with
  per-worker exponential backoff plus deterministic jitter instead of a
  fixed 0.1 s poll, so a large idle fleet does not hammer the socket.
* **Reconnect** — workers survive a coordinator restart by redialing
  with jittered exponential backoff before giving up.
* **Corrupt-result rejection** — an undecodable result payload is
  rejected and, if its sender still holds the lease, the point
  requeued; garbage on the wire costs one retry, never the coordinator.

Workers rebuild their runner from the coordinator's ``params`` and the
point from its canonical dict, so a remote shell needs no flags beyond
the address — and no shared filesystem: results travel over the socket
in the cache-entry format and the coordinator alone installs them
(byte-identical to a serial sweep, even when a crash or an expired lease
makes a task run twice, because points are deterministic and
installation is idempotent).
"""

from __future__ import annotations

import json
import multiprocessing
import random
import socket
import socketserver
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign import CampaignReport
from ..faults import FaultInjector, PlanLike, backoff_seconds, coerce_plan
from ..runner import SweepRunner, decode_entry, encode_entry
from ..spec import SweepPoint
from .base import default_worker_id
from .lease import DEFAULT_LEASE_TIMEOUT, LeaseTable, Renewer

#: protocol version sent in the welcome message (3 = leases/heartbeats)
PROTO_VERSION = 3

#: how many times a point may be attempted before the sweep fails
DEFAULT_MAX_ATTEMPTS = 3

#: floor of the coordinator's idle-wait advice
WAIT_SECONDS = 0.1

#: ceiling of the coordinator's idle-wait advice
WAIT_CAP = 2.0

#: how many consecutive connect failures a worker tolerates
DEFAULT_CONNECT_ATTEMPTS = 8

#: how often the coordinator's accept loop checks for shutdown, seconds
#: (``server.shutdown()`` at the end of a sweep waits up to this long)
SERVE_POLL_SECONDS = 0.05

#: sentinel for a line that arrived but did not decode (≠ EOF)
_MALFORMED = object()


def _send(wfile, obj: dict) -> None:
    """Write one protocol message (a JSON line)."""
    wfile.write((json.dumps(obj) + "\n").encode("utf-8"))
    wfile.flush()


def _recv(rfile):
    """Read one message; ``None`` on EOF, ``_MALFORMED`` on garbage.

    The distinction matters to the coordinator: EOF means the worker is
    gone (requeue its lease), while a malformed line means the worker is
    alive but speaking garbage (drop the connection deliberately, which
    requeues the lease the same way — but counts as a rejection).
    """
    line = rfile.readline()
    if not line:
        return None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError:
        return _MALFORMED
    return msg if isinstance(msg, dict) else _MALFORMED


def _point_of(msg: dict) -> SweepPoint:
    """Rebuild the wire point (canonical dict) as a :class:`SweepPoint`."""
    return SweepPoint.from_dict(msg["point"])


class _Handler(socketserver.StreamRequestHandler):
    """One connected worker: serve gets, accept results, requeue on drop."""

    def handle(self) -> None:
        """Serve one worker connection (socketserver hook)."""
        server: "_TaskServer" = self.server  # type: ignore[assignment]
        worker = "?"
        leased: Optional[SweepPoint] = None
        server.connection_opened()
        try:
            while True:
                msg = _recv(self.rfile)
                if msg is None:
                    return
                if msg is _MALFORMED:
                    # a live worker sent garbage framing: drop the
                    # connection (the finally clause requeues its lease)
                    server.note_rejected(worker, "malformed protocol line")
                    return
                op = msg.get("op")
                if op == "hello":
                    worker = str(msg.get("worker", "?"))
                    _send(
                        self.wfile,
                        {
                            "op": "welcome",
                            "proto": PROTO_VERSION,
                            "params": server.params,
                            "lease_timeout": server.lease_timeout,
                            "heartbeat_interval": server.heartbeat_interval,
                        },
                    )
                elif op == "get":
                    reply, leased = server.lease(worker)
                    _send(self.wfile, reply)
                    if reply["op"] == "done":
                        return
                elif op == "heartbeat":
                    # one-way: renewing must not disturb the worker's
                    # strict send→reply alternation on the main loop
                    try:
                        server.heartbeat(worker, _point_of(msg))
                    except Exception:
                        pass  # an undecodable heartbeat renews nothing
                elif op == "result":
                    try:
                        point = _point_of(msg)
                    except Exception:
                        server.note_rejected(worker, "undecodable point")
                        _send(
                            self.wfile,
                            {"op": "reject", "error": "undecodable point"},
                        )
                        continue
                    if server.complete(point, msg, worker):
                        _send(self.wfile, {"op": "ack"})
                    else:
                        _send(
                            self.wfile,
                            {"op": "reject", "error": "corrupt result payload"},
                        )
                    if leased == point:
                        leased = None
                elif op == "error":
                    try:
                        point = _point_of(msg)
                    except Exception:
                        server.note_rejected(worker, "undecodable point")
                        _send(self.wfile, {"op": "ack"})
                        continue
                    server.release(
                        point, f"{worker}: {msg.get('message', '')}", worker
                    )
                    if leased == point:
                        leased = None
                    _send(self.wfile, {"op": "ack"})
                else:
                    return
        except Exception:
            # a handler crash must never take the sweep down: fall
            # through to the finally clause, which requeues the lease
            return
        finally:
            server.connection_closed()
            if leased is not None:
                server.release(leased, f"worker {worker} disconnected", worker)


class _TaskServer(socketserver.ThreadingTCPServer):
    """Coordinator state: the lease table, its clock, and installation."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        runner: SweepRunner,
        pending: Sequence[SweepPoint],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        super().__init__(address, _Handler)
        self.runner = runner
        self.params = runner.runner_params(cache_dir=None)
        self.lease_timeout = float(lease_timeout)
        #: what workers are told to heartbeat at (several renewals per
        #: lease window, floored so tiny test timeouts still renew)
        self.heartbeat_interval = max(0.05, self.lease_timeout / 4.0)
        self._lock = threading.Lock()
        #: every point's lease state, driven under ``_lock``
        self.table = LeaseTable(pending, self.lease_timeout, max_attempts)
        self._wait_streaks: Dict[str, int] = {}
        self.finished = threading.Event()
        #: currently connected workers (spawned or external)
        self.active_connections = 0
        #: observability counters (tests assert on these)
        self.stats = {
            "served": 0,
            "requeued": 0,
            "duplicates": 0,
            "expired": 0,
            "rejected": 0,
            "heartbeats": 0,
        }
        self._check_finished()

    # ------------------------------------------------------------------
    def connection_opened(self) -> None:
        """A worker connected (handler thread start)."""
        with self._lock:
            self.active_connections += 1

    def connection_closed(self) -> None:
        """A worker disconnected (handler thread end)."""
        with self._lock:
            self.active_connections -= 1

    # ------------------------------------------------------------------
    def lease(self, worker: str) -> Tuple[dict, Optional[SweepPoint]]:
        """Hand the next queued point to ``worker`` (or wait/done)."""
        self.reap_expired()
        with self._lock:
            if self.table.done:
                return {"op": "done"}, None
            point = self.table.claim(worker, time.monotonic())
            if point is None:
                streak = self._wait_streaks.get(worker, 0)
                self._wait_streaks[worker] = streak + 1
                # deterministic per-(worker, streak) jitter: advice is
                # reproducible run to run, but desynchronized worker to
                # worker; capped so a worker never oversleeps a lease
                seconds = backoff_seconds(
                    streak,
                    base=WAIT_SECONDS,
                    cap=min(WAIT_CAP, max(WAIT_SECONDS, self.lease_timeout / 2)),
                    rng=random.Random(f"{worker}:{streak}"),
                )
                return {"op": "wait", "seconds": round(seconds, 4)}, None
            self._wait_streaks.pop(worker, None)
            self.stats["served"] += 1
            return {"op": "task", "point": point.to_dict()}, point

    def heartbeat(self, worker: str, point: SweepPoint) -> None:
        """Renew ``worker``'s lease on ``point`` (ignore stale claims)."""
        with self._lock:
            if self.table.renew(point, worker, time.monotonic()):
                self.stats["heartbeats"] += 1

    def reap_expired(self) -> None:
        """Requeue every lease whose deadline has passed."""
        with self._lock:
            lapsed = len(self.table.expired(time.monotonic()))
            self.stats["requeued"] += lapsed
            self.stats["expired"] += lapsed
        self._check_finished()

    def release(
        self,
        point: SweepPoint,
        reason: str,
        worker: str,
        counter: Optional[str] = None,
    ) -> None:
        """Requeue ``point`` if ``worker`` still holds its lease.

        ``counter`` names a stat that counts the requeue besides
        ``requeued``.
        """
        with self._lock:
            if self.table.requeue(point, reason, worker):
                self.stats["requeued"] += 1
                if counter is not None:
                    self.stats[counter] += 1
        self._check_finished()

    def complete(self, point: SweepPoint, msg: dict, worker: str) -> bool:
        """Install one streamed result (idempotently) and mark it done.

        Returns ``False`` — after requeueing the point, if ``worker``
        still holds its lease — when the payload does not decode as a
        cache entry: a corrupt result must cost one retry, not the
        coordinator process.
        """
        try:
            res, energy = decode_entry(
                {"result": msg["result"], "energy": msg["energy"]}
            )
        except Exception as exc:
            self.release(
                point,
                f"corrupt result payload ({exc!r}) from {worker}",
                worker,
                counter="rejected",
            )
            return False
        with self._lock:
            duplicate = not self.table.complete(point, worker)
            if duplicate:
                self.stats["duplicates"] += 1
        # install outside the lock: determinism makes re-installation of a
        # duplicate byte-identical, so ordering between racers is moot —
        # but provenance (worker name, timestamp) is NOT byte-identical
        # across racers, so only the first completion records it; a late
        # duplicate must not overwrite the original producer's sidecar
        self.runner.install(
            point,
            res,
            energy,
            provenance=(
                None
                if duplicate
                else self.runner.point_provenance(
                    point, worker=worker, backend="socket"
                )
            ),
        )
        if self.runner.verbose and not duplicate:
            records = self.table.records.values()
            completed = sum(r.status == "completed" for r in records)
            print(
                f"[sweep:socket] {completed}/{len(records)} done: "
                f"{point.describe()} ({worker})",
                flush=True,
            )
        self._check_finished()
        return True

    def note_rejected(self, worker: str, reason: str) -> None:
        """Count a protocol-level rejection not tied to a known point."""
        with self._lock:
            self.stats["rejected"] += 1
        if self.runner.verbose:
            print(f"[sweep:socket] rejected {worker}: {reason}", flush=True)

    def campaign_report(self) -> CampaignReport:
        """Snapshot the lease table as a :class:`CampaignReport`."""
        with self._lock:
            return self.table.report("socket", self.stats)

    def _check_finished(self) -> None:
        with self._lock:
            if self.table.done:
                self.finished.set()


def _worker_session(
    sock: socket.socket,
    name: str,
    injector: FaultInjector,
    state: dict,
) -> str:
    """Run one connection's pull loop; ``"done"`` or ``"lost"``.

    ``state`` persists across reconnects: it holds the rebuilt runner.
    The fault plan's ordinals index ``injector.tasks_received``, which
    persists with the injector.
    """
    write_lock = threading.Lock()
    with sock, sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:

        def send(obj: dict) -> None:
            with write_lock:
                _send(wfile, obj)

        def heartbeat(point: dict) -> bool:
            # one-way: the coordinator never answers a heartbeat, so the
            # main loop's strict send→reply alternation is untouched
            send({"op": "heartbeat", "worker": name, "point": point})
            return True

        send({"op": "hello", "worker": name})
        welcome = _recv(rfile)
        if welcome is None or welcome is _MALFORMED:
            return "lost"
        if welcome.get("op") != "welcome":
            raise RuntimeError(f"bad welcome from coordinator: {welcome!r}")
        if welcome.get("proto") != PROTO_VERSION:
            raise RuntimeError(
                f"coordinator speaks protocol {welcome.get('proto')!r}, "
                f"this worker speaks {PROTO_VERSION}"
            )
        params = welcome["params"]
        interval = float(welcome["heartbeat_interval"])
        while True:
            send({"op": "get"})
            msg = _recv(rfile)
            if msg is None or msg is _MALFORMED:
                return "lost"
            if msg.get("op") == "done":
                return "done"
            if msg.get("op") == "wait":
                time.sleep(float(msg["seconds"]))
                continue
            if msg.get("op") != "task":
                raise RuntimeError(f"unexpected coordinator message: {msg!r}")
            point = _point_of(msg)
            # a hang wedges before the renewer starts: a wedged process
            # heartbeats nothing, so its lease must expire and the point
            # migrate; after a timed hang the worker runs the point
            if injector.apply_receipt() == "drop":
                return "lost"  # the with-block slams the socket shut
            renewer = Renewer(partial(heartbeat, msg["point"]), interval)
            renewer.start()
            try:
                for reply in _outbox(state, params, point, injector):
                    send(reply)
                    if _recv(rfile) is None:
                        return "lost"
            finally:
                renewer.shutdown()


def _outbox(
    state: dict, params: dict, point: SweepPoint, injector: FaultInjector
) -> List[dict]:
    """Simulate ``point``; the messages that report it, each answered once.

    A scripted delivery fault corrupts the result, sends it twice, or
    delays it (the caller's renewer carries the lease: slow, not wedged).
    """
    if state["runner"] is None:
        state["runner"] = SweepRunner(verbose=False, **params)
    try:
        res, energy = state["runner"].run_point(point)
    except Exception as exc:
        return [{"op": "error", "point": point.to_dict(), "message": str(exc)}]
    result_msg = {"op": "result", "point": point.to_dict(), **encode_entry(res, energy)}
    delivery = injector.on_delivery()
    kind = delivery.kind if delivery is not None else None
    if kind == "delay":
        time.sleep(delivery.seconds)
    if kind == "corrupt":
        return [dict(result_msg, result={"__corrupt__": True}, energy={})]
    if kind == "duplicate":
        return [result_msg, result_msg]
    return [result_msg]


def worker_main(
    host: str,
    port: int,
    worker_name: Optional[str] = None,
    fault_plan: Optional[dict] = None,
    connect_attempts: int = DEFAULT_CONNECT_ATTEMPTS,
) -> int:
    """Worker loop: pull tasks from ``host:port`` until the sweep is done.

    This is the body of ``repro-cmp work host:port`` and of the worker
    processes the backend spawns locally.  The loop survives a lost
    coordinator — connection refused at dial time, or a connection that
    dies mid-sweep — by redialing with jittered exponential backoff,
    giving up only after ``connect_attempts`` consecutive failures.

    ``fault_plan`` is the dict form of a
    :class:`~repro.harness.faults.FaultPlan`, passed as a dict so it
    survives the ``spawn`` start method.
    """
    name = worker_name or default_worker_id()
    injector = FaultInjector(fault_plan, name)
    state = {"runner": None}
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=600)
        except OSError:
            failures += 1
            if failures > connect_attempts:
                raise RuntimeError(
                    f"coordinator {host}:{port} unreachable after "
                    f"{connect_attempts} attempts"
                )
            time.sleep(backoff_seconds(failures - 1, rng=injector.rng))
            continue
        try:
            outcome = _worker_session(sock, name, injector, state)
        except OSError:
            outcome = "lost"
        if outcome == "done":
            return 0
        failures += 1
        if failures > connect_attempts:
            raise RuntimeError(
                f"lost coordinator {host}:{port} and failed to rejoin "
                f"after {connect_attempts} attempts"
            )
        time.sleep(backoff_seconds(failures - 1, rng=injector.rng))


class SocketWorkStealingBackend:
    """Coordinator + pull-workers over TCP.

    With ``spawn_workers > 0`` the backend forks that many local worker
    processes for the duration of the sweep — a one-process-per-task-pull
    sibling of :class:`~repro.harness.backends.local.LocalBackend` that
    exercises the full network path.  With ``spawn_workers = 0`` it only
    serves, and remote ``repro-cmp work`` shells supply the labor.

    ``lease_timeout`` bounds how long a silent worker can hold a point;
    ``fault_plan`` installs a deterministic
    :class:`~repro.harness.faults.FaultPlan` into the spawned workers
    (the chaos tests' seam).  After :meth:`execute`, :attr:`last_report`
    holds the per-point :class:`~repro.harness.campaign.CampaignReport`.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: int = 2,
        timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        fault_plan: PlanLike = None,
    ) -> None:
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.lease_timeout = float(lease_timeout)
        self.fault_plan = coerce_plan(fault_plan)
        #: stats of the last :meth:`execute` (served/requeued/...)
        self.last_stats: Dict[str, int] = {}
        #: per-point ledger of the last :meth:`execute`
        self.last_report: Optional[CampaignReport] = None

    def execute(
        self, runner: SweepRunner, pending: Sequence[SweepPoint]
    ) -> int:
        """Serve ``pending`` to workers; block until installed or failed."""
        pending = list(pending)
        if not pending:
            return 0
        server = _TaskServer(
            (self.host, self.port),
            runner,
            pending,
            self.max_attempts,
            lease_timeout=self.lease_timeout,
        )
        host, port = server.server_address[:2]
        # a wildcard bind accepts remote workers, but spawned local
        # workers must dial loopback — connecting to 0.0.0.0 is not
        # portable
        connect_host = "127.0.0.1" if host in ("0.0.0.0", "::") else host
        serve_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": SERVE_POLL_SECONDS},
            daemon=True,
        )
        serve_thread.start()
        procs: List[multiprocessing.Process] = []
        plan_dict = self.fault_plan.to_dict() if self.fault_plan else None
        try:
            if runner.verbose:
                print(
                    f"[sweep:socket] serving {len(pending)} points on "
                    f"{host}:{port} ({self.spawn_workers} local workers, "
                    f"lease {self.lease_timeout:g}s)",
                    flush=True,
                )
            for i in range(self.spawn_workers):
                proc = multiprocessing.Process(
                    target=worker_main,
                    args=(connect_host, port),
                    kwargs={
                        "worker_name": f"local-{i}",
                        "fault_plan": plan_dict,
                    },
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            outcome = self._await(server, procs)
        finally:
            server.shutdown()
            server.server_close()
            for proc in procs:
                # spawned workers hold no state worth a long goodbye
                # (the coordinator alone installs results): give them a
                # moment to exit on "done", then terminate — a wedged
                # hang-fault worker would otherwise block teardown
                proc.join(timeout=2)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
            self.last_stats = dict(server.stats)
            self.last_report = server.campaign_report()
        lost = [r for r in self.last_report.records if r.status == "failed"]
        if lost:
            raise RuntimeError(
                "sweep points failed on every attempt: "
                + ", ".join(f"{r.point} ({r.reasons[-1]})" for r in lost)
            )
        if outcome == "starved":
            raise RuntimeError(
                f"all {self.spawn_workers} spawned workers exited and no "
                f"external workers connected, with "
                f"{self.remaining(runner, pending)} points unfinished"
            )
        if outcome == "timeout":
            raise TimeoutError(
                f"socket sweep timed out after {self.timeout}s with "
                f"{self.remaining(runner, pending)} points missing"
            )
        return len(pending)

    def _await(
        self,
        server: _TaskServer,
        procs: Sequence[multiprocessing.Process],
    ) -> str:
        """Block until done; returns ``finished``/``timeout``/``starved``.

        Each tick also reaps expired leases — this is the clock that
        frees a hung worker's point even when no other worker is
        polling.  Starvation — every spawned worker dead, no external
        worker connected, points remaining — is detected so a
        crash-everything scenario fails immediately instead of burning
        the whole timeout.  A healthy worker only exits after the
        coordinator's ``done``, so all-dead truly means no labor left; a
        still-connected external shell keeps the sweep alive (it can
        finish the work).  With ``spawn_workers=0`` only the timeout
        applies: a new shell may connect at any moment.
        """
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        while not server.finished.wait(0.2):
            server.reap_expired()
            if (
                procs
                and not any(proc.is_alive() for proc in procs)
                and server.active_connections == 0
            ):
                if server.finished.is_set():
                    return "finished"
                return "starved"
            if deadline is not None and time.monotonic() >= deadline:
                return "timeout"
        return "finished"

    @staticmethod
    def remaining(runner: SweepRunner, pending: Sequence[SweepPoint]) -> int:
        """How many of ``pending`` the runner still cannot serve."""
        return sum(1 for point in pending if runner.lookup(point) is None)

