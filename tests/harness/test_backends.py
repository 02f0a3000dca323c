"""Distributed sweep backends: serial equality, fault paths, protocol."""

import json
import os
import socket
import threading

import pytest

from repro.harness.backends import (
    BatchQueueBackend,
    SocketWorkStealingBackend,
    backend_names,
    make_backend,
    read_task_file,
    run_batch_worker,
    write_task_file,
)
from repro.harness.backends.batch import list_worker_result_dirs
from repro.harness.backends.socket_ws import _TaskServer, worker_main
from repro.harness.executor import ParallelSweepRunner
from repro.harness.faults import FaultPlan
from repro.harness.runner import SweepRunner, encode_entry
from repro.harness.spec import SweepPoint, grid_spec

SCALE = 0.04
#: 2 workloads x 1 size x 1 technique (+2 baseline twins) = 4 simulations
MATRIX = dict(benchmarks=["uniform", "pingpong"], sizes=[1], techniques=["protocol"])

#: the same matrix as a declarative spec (baseline listed explicitly)
MATRIX_SPEC = grid_spec(
    name="backend_matrix",
    workloads=["uniform", "pingpong"],
    sizes_mb=[1],
    techniques=["baseline", "protocol"],
)


def _blobs(runner):
    """Map of cache key -> raw entry bytes for a runner's cache."""
    out = {}
    for key, path in runner.cache.iter_entries():
        with open(path, "rb") as fh:
            out[key] = fh.read()
    return out


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    """The MATRIX swept by the serial runner (module-shared)."""
    runner = SweepRunner(
        scale=SCALE,
        cache_dir=str(tmp_path_factory.mktemp("serial") / "cache"),
        verbose=False,
    )
    return runner, runner.sweep(**MATRIX)


@pytest.fixture(scope="module")
def socket_run(tmp_path_factory):
    """The same MATRIX through the socket backend with 2 pull-workers."""
    backend = SocketWorkStealingBackend(spawn_workers=2, timeout=600)
    runner = ParallelSweepRunner(
        scale=SCALE,
        cache_dir=str(tmp_path_factory.mktemp("socket") / "cache"),
        verbose=False,
        backend=backend,
    )
    return runner, runner.sweep(**MATRIX)


@pytest.fixture(scope="module")
def batch_run(tmp_path_factory):
    """The same MATRIX through the batch backend with 2 sliced workers."""
    root = tmp_path_factory.mktemp("batch")
    backend = BatchQueueBackend(
        queue_dir=str(root / "queue"), spawn_workers=2, timeout=600
    )
    runner = ParallelSweepRunner(
        scale=SCALE,
        cache_dir=str(root / "cache"),
        verbose=False,
        backend=backend,
    )
    return runner, runner.sweep(**MATRIX)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(backend_names()) >= {"local", "socket", "batch"}

    def test_make_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            make_backend("carrier-pigeon")

    def test_runner_accepts_backend_by_name(self):
        runner = ParallelSweepRunner(
            scale=SCALE, cache_dir=None, verbose=False, backend="local", jobs=2
        )
        assert runner.backend.name == "local"
        # the named local backend must inherit the runner's job count,
        # not silently fall back to all cores
        assert runner.backend.jobs == 2


class TestSocketBackend:
    def test_metrics_match_serial(self, serial_run, socket_run):
        assert socket_run[1] == serial_run[1]

    def test_cache_blobs_byte_identical(self, serial_run, socket_run):
        s_blobs = _blobs(serial_run[0])
        p_blobs = _blobs(socket_run[0])
        assert set(s_blobs) == set(p_blobs)
        assert len(s_blobs) == 4
        assert s_blobs == p_blobs

    def test_every_task_went_over_the_wire(self, socket_run):
        stats = socket_run[0].backend.last_stats
        assert stats["served"] >= 4
        assert stats["duplicates"] == 0

    def test_worker_crash_mid_task_is_retried(self, serial_run, tmp_path):
        # worker 0 hard-exits after *receiving* its first task; worker 1
        # must steal the requeued point and the sweep still match serial
        backend = SocketWorkStealingBackend(
            spawn_workers=2,
            timeout=600,
            fault_plan=FaultPlan().kill("local-0", on_task=1),
        )
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            backend=backend,
        )
        metrics = runner.sweep(
            benchmarks=["uniform"], sizes=[1], techniques=["protocol"]
        )
        expected = [
            m
            for m in serial_run[1]
            if m.workload == "uniform" and m.technique == "protocol"
        ]
        assert metrics == expected
        assert backend.last_stats["requeued"] >= 1

    def test_unrunnable_matrix_fails_after_retries(self, tmp_path):
        # both workers crash on their first task: every lease is lost,
        # attempts exhaust, and execute() must raise instead of hanging
        plan = FaultPlan().kill("local-0", on_task=1).kill("local-1", on_task=1)
        backend = SocketWorkStealingBackend(
            spawn_workers=2,
            timeout=600,
            max_attempts=2,
            fault_plan=plan,
        )
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            backend=backend,
        )
        with pytest.raises(
            RuntimeError, match="failed on every attempt|workers exited"
        ):
            runner.prefetch(
                benchmarks=["uniform"], sizes=[1], techniques=["protocol"]
            )


class TestSocketProtocol:
    def test_worker_rejects_a_protocol_2_welcome(self):
        # the coordinator and the worker ship together: a worker greeted
        # by any protocol other than its own must fail loudly, not pull
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def coordinator() -> None:
                conn, _ = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    stream.readline()  # hello
                    welcome = {"op": "welcome", "proto": 2, "params": {}}
                    stream.write((json.dumps(welcome) + "\n").encode())
                    stream.flush()
                    stream.readline()  # EOF; a worker that accepts sends "get"

            thread = threading.Thread(target=coordinator, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            with pytest.raises(RuntimeError, match="protocol 2"):
                worker_main("127.0.0.1", port, connect_attempts=0)
            thread.join(timeout=10)


class TestDuplicateInstall:
    def test_duplicate_result_is_idempotent(self, serial_run, tmp_path):
        # a requeued task can complete twice (slow worker + its thief);
        # the second install must be a byte-identical no-op, not an error
        src_runner, _ = serial_run
        point = src_runner.point("uniform", 1, "protocol")
        res, energy = src_runner.run_point(point)
        blob = encode_entry(res, energy)
        msg = {"point": point.to_dict(), **blob}

        runner = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        server = _TaskServer(("127.0.0.1", 0), runner, [point])
        try:
            server.complete(point, msg, "worker-a")
            key = runner.point_key(point)
            first = runner.cache.read_bytes(key)
            assert first is not None
            server.complete(point, msg, "worker-b")
            assert runner.cache.read_bytes(key) == first
            assert server.stats["duplicates"] == 1
            assert server.finished.is_set()
        finally:
            server.server_close()

    def test_wire_point_preserves_digest(self, serial_run):
        # the acceptance property of transport: a point that crosses the
        # wire (canonical dict -> JSON -> dict) keeps its identity digest
        src_runner, _ = serial_run
        point = src_runner.point("uniform", 1, "protocol")
        wire = json.loads(json.dumps({"point": point.to_dict()}))
        rebuilt = SweepPoint.from_dict(wire["point"])
        assert rebuilt == point
        assert rebuilt.digest() == point.digest()
        assert src_runner.point_key(rebuilt) == src_runner.point_key(point)


class TestTimeouts:
    def test_batch_spawn_mode_honors_timeout(self, tmp_path):
        backend = BatchQueueBackend(
            queue_dir=str(tmp_path / "queue"), spawn_workers=1, timeout=0.05
        )
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            backend=backend,
        )
        with pytest.raises(TimeoutError, match="still running"):
            runner.prefetch(
                benchmarks=["uniform"], sizes=[1], techniques=["protocol"]
            )

    def test_socket_timeout_is_a_timeout_not_starvation(self, tmp_path):
        # healthy-but-slow workers at the deadline must surface as a
        # TimeoutError, not as "all workers exited"
        backend = SocketWorkStealingBackend(spawn_workers=1, timeout=0.05)
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            backend=backend,
        )
        with pytest.raises(TimeoutError, match="timed out"):
            runner.prefetch(
                benchmarks=["uniform"], sizes=[1], techniques=["protocol"]
            )


class TestBatchBackend:
    def test_metrics_match_serial(self, serial_run, batch_run):
        assert batch_run[1] == serial_run[1]

    def test_cache_blobs_byte_identical(self, serial_run, batch_run):
        assert _blobs(serial_run[0]) == _blobs(batch_run[0])

    def test_worker_shards_have_manifests(self, batch_run):
        # every worker publishes a manifest; with lease-based stealing
        # the split is dynamic, so only the union is guaranteed to cover
        # the matrix (a fast worker may have claimed everything)
        queue_dir = batch_run[0].backend.queue_dir
        shards = list_worker_result_dirs(queue_dir)
        assert len(shards) == 2
        from repro.harness.result_cache import ResultCache
        from repro.harness.runner import CACHE_VERSION

        counts = []
        for shard in shards:
            manifest = ResultCache(shard, CACHE_VERSION).read_manifest()
            assert manifest is not None
            counts.append(manifest["count"])
        assert sum(counts) >= 4

    def test_merge_reports_cover_all_points(self, batch_run):
        reports = batch_run[0].backend.last_reports
        assert sum(r.imported for r in reports) == 4
        assert sum(r.conflicts for r in reports) == 0

    def test_task_file_roundtrip(self, tmp_path):
        runner = SweepRunner(scale=SCALE, cache_dir=None, verbose=False)
        points = [
            runner.point("uniform", 1, "baseline"),
            runner.point("uniform", 1, "protocol"),
        ]
        write_task_file(str(tmp_path), {"scale": SCALE, "seed": 1}, points)
        payload = read_task_file(str(tmp_path))
        assert payload["points"] == points
        assert payload["params"]["scale"] == SCALE

    def test_task_file_rejects_other_cache_version(self, tmp_path):
        write_task_file(str(tmp_path), {}, [])
        path = tmp_path / "tasks.json"
        payload = json.loads(path.read_text())
        payload["cache_version"] -= 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="cache v"):
            read_task_file(str(tmp_path))

    def test_task_file_rejects_triple_format(self, tmp_path):
        # format 1 carried bare (workload, mb, technique) triples; a v2
        # reader must refuse it instead of misreading the specs
        write_task_file(str(tmp_path), {}, [])
        path = tmp_path / "tasks.json"
        payload = json.loads(path.read_text())
        payload["format"] = 1
        payload["specs"] = [["uniform", 1, "protocol"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="task-file format"):
            read_task_file(str(tmp_path))

    def test_worker_slices_partition_the_matrix(self, tmp_path, serial_run):
        # slices order preference, not ownership: the first worker steals
        # the absent second worker's points, the late worker finds every
        # point settled, and a coordinator ingesting both shards serves
        # the full matrix
        queue_dir = str(tmp_path / "queue")
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            jobs=1,
        )
        points = runner.plan(["uniform"], [1], ["protocol"])
        write_task_file(queue_dir, runner.runner_params(), points)
        done0 = run_batch_worker(queue_dir, "w0", task_slice=(0, 2))
        done1 = run_batch_worker(queue_dir, "w1", task_slice=(1, 2))
        assert done0 + done1 == len(points) == 2
        backend = BatchQueueBackend(queue_dir=queue_dir, spawn_workers=0)
        assert backend.collect(runner, points) == []
        assert {os.path.basename(d) for d in list_worker_result_dirs(queue_dir)} == {
            "w0",
            "w1",
        }

    def test_collect_never_mutates_worker_shards(self, tmp_path, serial_run):
        # a half-synced (corrupt) blob in a worker's shard must be
        # skipped, not unlinked: the shard belongs to the worker, and a
        # later sync may complete the file
        src_runner, _ = serial_run
        point = src_runner.point("uniform", 1, "protocol")
        key = src_runner.point_key(point)
        queue_dir = str(tmp_path / "queue")
        shard_dir = os.path.join(queue_dir, "results", "half-synced")
        from repro.harness.result_cache import ResultCache
        from repro.harness.runner import CACHE_VERSION

        shard = ResultCache(shard_dir, CACHE_VERSION)
        shard.put_bytes(key, src_runner.cache.read_bytes(key)[:20])
        runner = SweepRunner(scale=SCALE, cache_dir=None, verbose=False)
        backend = BatchQueueBackend(queue_dir=queue_dir, spawn_workers=0)
        assert backend.collect(runner, [point]) == [point]
        assert shard.read_bytes(key) is not None  # still on the shard

    def test_collect_skips_schema_invalid_shard_entry(self, tmp_path, serial_run):
        # JSON-valid but wrong-shape entries must be re-awaited like
        # corrupt ones, not crash the coordinator
        src_runner, _ = serial_run
        point = src_runner.point("uniform", 1, "protocol")
        key = src_runner.point_key(point)
        queue_dir = str(tmp_path / "queue")
        from repro.harness.result_cache import ResultCache
        from repro.harness.runner import CACHE_VERSION

        shard = ResultCache(
            os.path.join(queue_dir, "results", "divergent"), CACHE_VERSION
        )
        shard.put(key, {"unexpected": "shape"})
        runner = SweepRunner(scale=SCALE, cache_dir=None, verbose=False)
        backend = BatchQueueBackend(queue_dir=queue_dir, spawn_workers=0)
        assert backend.collect(runner, [point]) == [point]

    def test_stale_manifest_shard_is_awaited_not_fatal(self, tmp_path, serial_run):
        # a worker that died between writing its manifest and its blobs
        # leaves stale manifest rows; collect() must keep waiting for the
        # missing points instead of crashing or installing garbage
        src_runner, _ = serial_run
        queue_dir = str(tmp_path / "queue")
        runner = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        points = [
            src_runner.point("uniform", 1, "baseline"),
            src_runner.point("uniform", 1, "protocol"),
        ]
        shard_dir = os.path.join(queue_dir, "results", "dead-worker")
        from repro.harness.result_cache import ResultCache
        from repro.harness.runner import CACHE_VERSION

        shard = ResultCache(shard_dir, CACHE_VERSION)
        for point in points:
            key = src_runner.point_key(point)
            shard.put_bytes(key, src_runner.cache.read_bytes(key))
        shard.write_manifest()
        lost_key = src_runner.point_key(points[1])
        os.unlink(shard.path_for(lost_key))

        backend = BatchQueueBackend(queue_dir=queue_dir, spawn_workers=0)
        missing = backend.collect(runner, points)
        assert missing == [points[1]]
        assert sum(r.stale_manifest for r in backend.last_reports) == 1
        # the surviving entry was ingested byte-for-byte
        key = src_runner.point_key(points[0])
        assert runner.cache.read_bytes(key) == src_runner.cache.read_bytes(key)


class TestSpecDrivenSweeps:
    """The acceptance seam: spec files drive backends byte-identically."""

    def test_spec_through_local_backend_matches_serial(
        self, serial_run, tmp_path
    ):
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            jobs=2,
        )
        metrics = runner.run_spec(MATRIX_SPEC)
        # the spec lists baseline rows explicitly; the triple-driven
        # serial sweep interleaves per (size, workload) — compare as sets
        # of per-point metrics plus the exact blob bytes below
        assert {
            (m.workload, m.total_mb, m.technique) for m in metrics
        } >= {(m.workload, m.total_mb, m.technique) for m in serial_run[1]}
        for m in serial_run[1]:
            assert m in metrics
        assert _blobs(serial_run[0]) == _blobs(runner)

    def test_spec_through_batch_backend_matches_serial(
        self, serial_run, tmp_path
    ):
        backend = BatchQueueBackend(
            queue_dir=str(tmp_path / "queue"), spawn_workers=2, timeout=600
        )
        runner = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "cache"),
            verbose=False,
            backend=backend,
        )
        runner.run_spec(MATRIX_SPEC)
        assert _blobs(serial_run[0]) == _blobs(runner)

    def test_spec_survives_toml_transport_before_execution(self, tmp_path):
        # author -> TOML file -> reload -> identical expansion digests
        path = str(tmp_path / "matrix.toml")
        from repro.harness.spec import load_spec, save_spec

        save_spec(MATRIX_SPEC, path)
        reloaded = load_spec(path)
        assert reloaded == MATRIX_SPEC
        a = [p.digest() for p in MATRIX_SPEC.expand(scale=SCALE)]
        b = [p.digest() for p in reloaded.expand(scale=SCALE)]
        assert a == b
