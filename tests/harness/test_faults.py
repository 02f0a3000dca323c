"""Chaos tests: injected faults must converge byte-identically to serial.

Every scenario here follows the same shape: script exactly one failure
with a :class:`~repro.harness.faults.FaultPlan`, run a distributed sweep
through it, and assert (a) the sweep still completes and (b) the result
cache blobs carry the same sha256 digests as a serial sweep of the same
points.  Determinism of the points plus idempotent installation is what
makes that a fair test — any divergence is a real fault-tolerance bug,
not scheduling noise.
"""

import hashlib
import json
import os
import socket as socket_mod
import threading
import time

import pytest

from repro.harness.backends import (
    BatchQueueBackend,
    SocketWorkStealingBackend,
)
from repro.harness.backends.lease import (
    LeaseTable,
    claim_lease,
    lease_path,
    log_event,
    read_events,
    release_lease,
    renew_lease,
)
from repro.harness.backends.batch import run_batch_worker, write_task_file
from repro.harness.backends.socket_ws import (
    PROTO_VERSION,
    _TaskServer,
    worker_main,
)
from repro.harness.campaign import read_report
from repro.harness.executor import ParallelSweepRunner
from repro.harness.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    backoff_seconds,
)
from repro.harness.runner import SweepRunner
from repro.harness.spec import SweepPoint
from tests.conftest import seed_cache

SCALE = 0.04
#: the serial reference matrix (superset of every chaos run below)
MATRIX = dict(
    benchmarks=["uniform", "pingpong"], sizes=[1], techniques=["protocol"]
)
#: the matrix most chaos runs use: 1 workload -> baseline + protocol
SMALL = dict(benchmarks=["uniform"], sizes=[1], techniques=["protocol"])


def _sha_blobs(runner):
    """Map of cache key -> sha256 of the raw entry bytes."""
    out = {}
    for key, path in runner.cache.iter_entries():
        with open(path, "rb") as fh:
            out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _assert_byte_identical(serial_runner, chaos_runner):
    """Every blob the chaos run produced matches the serial digest."""
    serial = _sha_blobs(serial_runner)
    chaos = _sha_blobs(chaos_runner)
    assert chaos, "chaos run produced no cache entries"
    for key, digest in chaos.items():
        assert serial.get(key) == digest, f"blob diverged for {key}"


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory, reference_runner):
    """The MATRIX swept serially: the byte-identity reference.

    Its cache holds exactly the MATRIX blobs, copied from the session's
    serial reference rather than simulated a second time.
    """
    runner = SweepRunner(
        scale=SCALE,
        cache_dir=str(tmp_path_factory.mktemp("serial") / "cache"),
        verbose=False,
    )
    seed_cache(reference_runner, runner, runner.points_for(**MATRIX))
    return runner, runner.sweep(**MATRIX)


def _socket_sweep(tmp_path, plan, lease_timeout, matrix=SMALL, **kw):
    """One socket sweep under a fault plan; returns (runner, backend)."""
    backend = SocketWorkStealingBackend(
        spawn_workers=2,
        timeout=600,
        lease_timeout=lease_timeout,
        fault_plan=plan,
        **kw,
    )
    runner = ParallelSweepRunner(
        scale=SCALE,
        cache_dir=str(tmp_path / "cache"),
        verbose=False,
        backend=backend,
    )
    runner.sweep(**matrix)
    return runner, backend


def _batch_sweep(tmp_path, plan, lease_timeout, matrix=SMALL):
    """One batch sweep under a fault plan; returns (runner, backend)."""
    backend = BatchQueueBackend(
        queue_dir=str(tmp_path / "queue"),
        spawn_workers=2,
        timeout=600,
        lease_timeout=lease_timeout,
        fault_plan=plan,
    )
    runner = ParallelSweepRunner(
        scale=SCALE,
        cache_dir=str(tmp_path / "cache"),
        verbose=False,
        backend=backend,
    )
    runner.sweep(**matrix)
    return runner, backend


class TestFaultPlan:
    def test_roundtrips_through_dict_and_json(self):
        plan = (
            FaultPlan(seed=7)
            .kill("w0", on_task=2)
            .hang("w1", seconds=1.5)
            .corrupt("w1", on_task=3)
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert bool(plan) and not bool(FaultPlan())

    def test_rejects_bad_kind_and_ordinal(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction("melt", "w0")
        with pytest.raises(ValueError, match="1-based"):
            FaultAction("kill", "w0", on_task=0)

    def test_injector_fires_once_at_the_scripted_ordinal(self):
        plan = FaultPlan().kill("w0", on_task=2).delay("w0", on_task=3)
        inj = FaultInjector(plan.to_dict(), "w0")
        assert inj.on_task() is None  # task 1
        assert inj.on_delivery() is None
        action = inj.on_task()  # task 2
        assert action is not None and action.kind == "kill"
        assert inj.on_task() is None  # task 3 receipt seam is clean...
        delivery = inj.on_delivery()  # ...the delay is on delivery
        assert delivery is not None and delivery.kind == "delay"
        assert inj.on_delivery() is None  # fires at most once

    def test_injector_ignores_other_workers(self):
        plan = FaultPlan().kill("w0")
        inj = FaultInjector(plan, "w1")
        assert inj.on_task() is None

    def test_backoff_is_capped_deterministic_and_jittered(self):
        assert backoff_seconds(0, base=0.1, cap=2.0) == pytest.approx(0.1)
        assert backoff_seconds(50, base=0.1, cap=2.0) == pytest.approx(2.0)
        import random

        a = backoff_seconds(3, rng=random.Random("w:3"))
        b = backoff_seconds(3, rng=random.Random("w:3"))
        assert a == b  # same seed, same advice
        raw = backoff_seconds(3)
        assert 0.5 * raw <= a < 1.5 * raw


class TestLeaseFiles:
    def test_fresh_claim_is_exclusive(self, tmp_path):
        q = str(tmp_path)
        assert claim_lease(q, "k1", "w0", 60.0) == "fresh"
        assert claim_lease(q, "k1", "w1", 60.0) is None
        release_lease(q, "k1", "w0")
        assert claim_lease(q, "k1", "w1", 60.0) == "fresh"

    def test_own_live_lease_reenters_as_fresh(self, tmp_path):
        q = str(tmp_path)
        assert claim_lease(q, "k1", "w0", 60.0) == "fresh"
        assert claim_lease(q, "k1", "w0", 60.0) == "fresh"

    def test_stale_lease_is_reclaimed(self, tmp_path):
        q = str(tmp_path)
        assert claim_lease(q, "k1", "w0", 60.0) == "fresh"
        old = time.time() - 100.0
        os.utime(lease_path(q, "k1"), (old, old))
        assert claim_lease(q, "k1", "w1", 5.0) == "reclaimed"

    def test_renew_and_release_require_ownership(self, tmp_path):
        q = str(tmp_path)
        claim_lease(q, "k1", "w0", 60.0)
        assert renew_lease(q, "k1", "w0")
        assert not renew_lease(q, "k1", "w1")
        release_lease(q, "k1", "w1")  # not the holder: must be a no-op
        assert renew_lease(q, "k1", "w0")


class TestLeaseTable:
    """The lease state machine both distributed backends drive."""

    P0 = SweepPoint("uniform", 1)
    P1 = SweepPoint("pingpong", 1)

    def test_renew_by_a_non_holder_is_refused(self):
        table = LeaseTable([self.P0], lease_timeout=10.0)
        assert table.claim("w0", now=0.0) == self.P0
        assert not table.renew(self.P0, "w1", now=5.0)
        assert table.renew(self.P0, "w0", now=5.0)
        assert table.expired(now=12.0) == []  # the deadline moved to 15 s

    def test_expired_lease_is_returned_once(self):
        table = LeaseTable([self.P0], lease_timeout=10.0)
        table.claim("w0", now=0.0)
        assert table.expired(now=10.0) == [(self.P0, "w0")]
        assert table.expired(now=20.0) == []
        record = table.records[self.P0]
        assert record.requeues == 1
        assert "lease expired" in record.reasons[0]
        assert table.claim("w1", now=20.0) == self.P0

    def test_requeue_with_a_stale_worker_is_a_noop(self):
        # w0's disconnect arrives after its lapsed lease went to w1
        table = LeaseTable([self.P0], lease_timeout=10.0)
        table.claim("w0", now=0.0)
        table.expired(now=10.0)
        table.claim("w1", now=10.0)
        assert not table.requeue(self.P0, "w0 disconnected", worker="w0")
        assert table.renew(self.P0, "w1", now=11.0)
        assert table.records[self.P0].requeues == 1
        assert table.claim("w2", now=11.0) is None  # never queued twice

    def test_max_attempts_fails_and_a_late_completion_counts(self):
        table = LeaseTable([self.P0], lease_timeout=10.0, max_attempts=2)
        for worker in ("w0", "w1"):
            assert table.claim(worker, now=0.0) == self.P0
            table.requeue(self.P0, f"{worker} crashed", worker=worker)
        record = table.records[self.P0]
        assert record.status == "failed" and table.done
        assert (record.attempts, record.requeues) == (2, 1)
        assert table.complete(self.P0, "w1")
        assert record.status == "completed" and record.worker == "w1"

    def test_duplicate_completion_keeps_the_first_producer(self):
        table = LeaseTable([self.P0, self.P1], lease_timeout=10.0)
        table.claim("w0", now=0.0)
        assert table.complete(self.P0, "w0")
        assert not table.complete(self.P0, "w1")
        assert table.records[self.P0].worker == "w0"
        report = table.report("socket", {"served": 1})
        assert (report.completed, report.total) == (1, 2)
        assert not table.done

    def test_batch_replay_orders_ledgers_by_time(self, tmp_path):
        # ledgers are read in worker-name order, so the reclaimer's
        # ledger comes first; the replay must still see the dead
        # worker's claim before the reclaim that broke it
        runner = SweepRunner(scale=SCALE, cache_dir=None, verbose=False)
        queue_dir = str(tmp_path)
        claim = {
            "event": "claim",
            "digest": runner.point_key(self.P0),
            "point": self.P0.describe(),
        }
        log_event(queue_dir, "z-dead", dict(claim, kind="fresh", t=1.0))
        log_event(queue_dir, "a-live", dict(claim, kind="reclaimed", t=70.0))
        backend = BatchQueueBackend(queue_dir=queue_dir, spawn_workers=0)
        report = backend._campaign_report(runner, [self.P0])
        (record,) = report.records
        assert record.reasons == ["stale lease reclaimed by a-live"]
        assert (record.attempts, record.requeues) == (2, 1)
        assert report.stats == {"claims": 2, "reclaimed": 1, "completions": 0}


class TestSocketChaos:
    def test_killed_worker_point_migrates(self, serial_run, tmp_path):
        plan = FaultPlan(seed=3).kill("local-0", on_task=1)
        runner, backend = _socket_sweep(tmp_path, plan, lease_timeout=60.0)
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_stats["requeued"] >= 1
        assert backend.last_report.eventful

    def test_hung_worker_lease_expires_and_sweep_completes(
        self, serial_run, tmp_path
    ):
        # the worker wedges forever while its TCP connection stays up:
        # only lease expiry (not EOF) can free its point, and the sweep
        # must finish roughly one lease window after the hang
        lease = 1.0
        plan = FaultPlan(seed=3).hang("local-0", on_task=1, seconds=0.0)
        start = time.monotonic()
        runner, backend = _socket_sweep(tmp_path, plan, lease_timeout=lease)
        elapsed = time.monotonic() - start
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_stats["expired"] >= 1
        assert backend.last_stats["heartbeats"] >= 1
        assert any(
            "lease expired" in reason
            for record in backend.last_report.records
            for reason in record.reasons
        )
        # epsilon covers process spawn, the simulations themselves, and
        # teardown of the wedged worker — generous for loaded CI hosts
        assert elapsed < lease + 45.0

    def test_corrupt_result_is_rejected_and_requeued(
        self, serial_run, tmp_path
    ):
        plan = FaultPlan(seed=3).corrupt("local-0", on_task=1)
        runner, backend = _socket_sweep(tmp_path, plan, lease_timeout=60.0)
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_stats["rejected"] >= 1
        assert backend.last_stats["requeued"] >= 1
        assert any(
            "corrupt result payload" in reason
            for record in backend.last_report.records
            for reason in record.reasons
        )

    def test_duplicate_delivery_is_idempotent(self, serial_run, tmp_path):
        plan = FaultPlan(seed=3).duplicate("local-0", on_task=1)
        runner, backend = _socket_sweep(tmp_path, plan, lease_timeout=60.0)
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_stats["duplicates"] == 1

    def test_slow_delivery_survives_on_heartbeats(self, serial_run, tmp_path):
        # a delay much longer than the lease, with the heartbeat pump
        # alive: the lease must be carried, never expired
        plan = FaultPlan(seed=3).delay("local-0", on_task=1, seconds=2.5)
        runner, backend = _socket_sweep(tmp_path, plan, lease_timeout=1.0)
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_stats["expired"] == 0
        assert backend.last_stats["requeued"] == 0
        assert backend.last_stats["heartbeats"] >= 1

    def test_campaign_report_published_next_to_manifest(
        self, serial_run, tmp_path
    ):
        plan = FaultPlan(seed=3).kill("local-0", on_task=1)
        runner, backend = _socket_sweep(tmp_path, plan, lease_timeout=60.0)
        report = read_report(runner.cache.version_dir())
        assert report is not None
        assert report.backend == "socket"
        assert report.completed == report.total == 2
        assert report.eventful == backend.last_report.eventful

    def test_welcome_carries_lease_protocol_fields(self, tmp_path):
        runner = SweepRunner(scale=SCALE, cache_dir=None, verbose=False)
        point = runner.point("uniform", 1, "protocol")
        server = _TaskServer(
            ("127.0.0.1", 0), runner, [point], lease_timeout=7.0
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            port = server.server_address[1]
            with socket_mod.create_connection(("127.0.0.1", port), 10) as s:
                fh = s.makefile("rwb")
                fh.write(b'{"op": "hello", "worker": "probe"}\n')
                fh.flush()
                welcome = json.loads(fh.readline())
        finally:
            server.shutdown()
            server.server_close()
        assert welcome["op"] == "welcome"
        assert welcome["proto"] == PROTO_VERSION == 3
        assert welcome["lease_timeout"] == 7.0
        assert welcome["heartbeat_interval"] == pytest.approx(7.0 / 4.0)


def _serve_one_task_then_die(port_queue, scale, point_dicts):
    """Child-process coordinator that hard-exits after serving one task.

    Exiting the process (not just the server loop) closes every socket
    it owns — the honest simulation of a coordinator host dying.
    """
    runner = SweepRunner(scale=scale, cache_dir=None, verbose=False)
    points = [SweepPoint.from_dict(d) for d in point_dicts]
    server = _TaskServer(("127.0.0.1", 0), runner, points, lease_timeout=30.0)
    port_queue.put(server.server_address[1])
    threading.Thread(target=server.serve_forever, daemon=True).start()
    for _ in range(6000):
        if server.stats["served"] >= 1:
            break
        time.sleep(0.01)
    os._exit(0)


class TestCoordinatorRestart:
    def test_worker_reconnects_to_a_restarted_coordinator(
        self, serial_run, tmp_path
    ):
        import multiprocessing

        src_runner, _ = serial_run
        points = [
            src_runner.point("uniform", 1, "baseline"),
            src_runner.point("uniform", 1, "protocol"),
        ]
        port_queue = multiprocessing.Queue()
        first = multiprocessing.Process(
            target=_serve_one_task_then_die,
            args=(port_queue, SCALE, [p.to_dict() for p in points]),
            daemon=True,
        )
        first.start()
        port = port_queue.get(timeout=60)

        outcome = {}

        def pull() -> None:
            outcome["rc"] = worker_main(
                "127.0.0.1", port, worker_name="w", connect_attempts=30
            )

        worker = threading.Thread(target=pull, daemon=True)
        worker.start()
        first.join(timeout=120)  # dies mid-sweep, severing the connection
        assert not first.is_alive()

        runner2 = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        server2 = _TaskServer(
            ("127.0.0.1", port), runner2, points, lease_timeout=60.0
        )
        threading.Thread(target=server2.serve_forever, daemon=True).start()
        try:
            assert server2.finished.wait(180), "restarted sweep never finished"
        finally:
            server2.shutdown()
            server2.server_close()
        worker.join(timeout=60)
        assert outcome.get("rc") == 0  # the same worker finished the job
        assert server2.stats["served"] >= 2
        _assert_byte_identical(src_runner, runner2)


class TestBatchChaos:
    def test_killed_worker_lease_is_reclaimed(self, serial_run, tmp_path):
        plan = FaultPlan(seed=3).kill("batch-0", on_task=1)
        runner, backend = _batch_sweep(tmp_path, plan, lease_timeout=0.5)
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_report.stats["reclaimed"] >= 1
        assert any(
            "stale lease reclaimed" in reason
            for record in backend.last_report.records
            for reason in record.reasons
        )

    def test_hung_worker_lease_goes_stale_and_migrates(
        self, serial_run, tmp_path
    ):
        # the worker sleeps through its claim without renewing: the
        # survivor must reclaim, and the sleeper must wake into a world
        # where its point is already settled (the hang is much longer
        # than survivor-sim + lease so the reclaim always wins the race)
        plan = FaultPlan(seed=3).hang("batch-0", on_task=1, seconds=10.0)
        runner, backend = _batch_sweep(tmp_path, plan, lease_timeout=0.5)
        _assert_byte_identical(serial_run[0], runner)
        assert backend.last_report.stats["reclaimed"] >= 1

    def test_dropped_claim_is_retaken(self, serial_run, tmp_path):
        plan = FaultPlan(seed=3).drop("batch-0", on_task=1)
        runner, backend = _batch_sweep(tmp_path, plan, lease_timeout=60.0)
        _assert_byte_identical(serial_run[0], runner)
        # the abandoned claim cost one extra claim event, nothing else
        assert backend.last_report.stats["claims"] >= 3
        assert backend.last_report.stats["completions"] >= 2

    def test_single_worker_reclaims_a_dead_strangers_lease(
        self, serial_run, tmp_path
    ):
        # unit-level reclaim: a lease left behind by a dead worker (old
        # mtime, no process) must not block a later worker
        src_runner, _ = serial_run
        queue_dir = str(tmp_path / "queue")
        params = SweepRunner(
            scale=SCALE, cache_dir=None, verbose=False
        ).runner_params()
        point = src_runner.point("uniform", 1, "protocol")
        write_task_file(queue_dir, params, [point])
        key = src_runner.point_key(point)
        assert claim_lease(queue_dir, key, "dead-worker", 60.0) == "fresh"
        old = time.time() - 100.0
        os.utime(lease_path(queue_dir, key), (old, old))

        done = run_batch_worker(queue_dir, "survivor", lease_timeout=5.0)
        assert done == 1
        events = read_events(queue_dir)
        assert any(
            e.get("event") == "claim" and e.get("kind") == "reclaimed"
            for e in events
        )
        assert any(e.get("event") == "complete" for e in events)


class TestResume:
    def test_partition_cached_splits_planned_points(
        self, serial_run, tmp_path
    ):
        src_runner, _ = serial_run
        points = [
            src_runner.point("uniform", 1, "baseline"),
            src_runner.point("uniform", 1, "protocol"),
        ]
        cached, missing = src_runner.partition_cached(points)
        assert cached == points and missing == []
        fresh = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        cached, missing = fresh.partition_cached(points)
        assert cached == [] and missing == points
