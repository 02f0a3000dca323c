"""The two sweep workloads: ``matrix_serial`` and ``ensemble_socket``.

A *pass* executes the workload's point list once into a fresh result
cache and checks every installed blob against its pinned digest.  Its
wall time runs from the call that executes the point list until every
blob is installed; a point's time runs from its worker's previous
install (or the start of the pass) to its own install.  An untraced run
is one pass; a traced run is an untraced and a traced pass.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import common
import hostspeed
import tracing

#: model counts summed over a pass's points (from ``SimResult``)
MODEL_COUNTS = (
    "l1_accesses", "l2_accesses", "l2_misses", "bus_txns",
    "decay_turnoffs", "decay_induced_misses", "cycles",
)
BACKEND_COUNTS = ("served", "requeued", "expired", "heartbeats")
#: the backend counts a fault-free sweep repeats exactly (not heartbeats,
#: which follow the clock)
EXACT_BACKEND_COUNTS = BACKEND_COUNTS[:3]


def model_counts(res) -> Dict[str, int]:
    return {
        "l1_accesses": sum(s.loads + s.stores for s in res.l1),
        "l2_accesses": sum(s.reads + s.writes for s in res.l2),
        "l2_misses": sum(s.read_misses + s.write_misses for s in res.l2),
        "bus_txns": sum(res.bus_txn_counts.values()),
        "decay_turnoffs": sum(
            s.gated_decay_clean + s.gated_decay_dirty for s in res.l2
        ),
        "decay_induced_misses": sum(s.decay_induced_misses for s in res.l2),
        "cycles": res.total_cycles,
    }


def _stamped(base):
    """``base`` runner class that records when each point is installed."""

    class Stamped(base):
        def install(self, point, res, energy, write_cache=True, provenance=None):
            super().install(point, res, energy, write_cache=write_cache,
                            provenance=provenance)
            worker = (provenance or {}).get("worker")
            self.stamps.setdefault(self.point_key(point),
                                   (time.perf_counter(), worker))

    return Stamped


def build_runner(workload: str, seed: int, cache_dir: str):
    from repro.harness import (
        ParallelSweepRunner,
        SocketWorkStealingBackend,
        SweepRunner,
    )

    ctx = dict(scale=common.SCALE, seed=seed, n_cores=common.N_CORES,
               cache_dir=cache_dir, verbose=False)
    if workload == "matrix_serial":
        runner = _stamped(SweepRunner)(**ctx)
        points = common.matrix_points(runner)
    else:
        backend = SocketWorkStealingBackend(spawn_workers=common.SOCKET_WORKERS)
        runner = _stamped(ParallelSweepRunner)(backend=backend, **ctx)
        points = common.ensemble_points(runner)
    runner.stamps = {}
    return runner, points


class _WorkerRss(threading.Thread):
    """Polls the peak RSS the socket workers add to the coordinator.

    A forked worker's RSS starts with the coordinator's resident pages
    (copy-on-write), so each worker counts its peak minus the
    coordinator's RSS when the worker was first seen.
    """

    def __init__(self, ignore) -> None:
        super().__init__(daemon=True)
        self.ignore = set(ignore)
        self.base: Dict[int, int] = {}
        self.peaks: Dict[int, int] = {}
        self._stop_event = threading.Event()

    def run(self) -> None:
        while True:
            for pid in common.child_pids(os.getpid()):
                if pid in self.ignore:
                    continue
                if pid not in self.base:
                    self.base[pid] = common.status_kib(os.getpid(), "VmRSS")
                added = common.status_kib(pid, "VmHWM") - self.base[pid]
                self.peaks[pid] = max(self.peaks.get(pid, 0), added)
            if self._stop_event.wait(0.2):
                return

    def stop(self) -> int:
        self._stop_event.set()
        self.join(timeout=5)
        return sum(self.peaks.values())


def run_pass(workload: str, seed: int, refs: Dict[str, str],
             ignore_pids=()) -> dict:
    """Execute the point list once; returns timings, checks and counts.

    ``matrix_serial`` runs pinned to :func:`hostspeed.work_cpu`; socket
    workers run on every CPU.  ``ignore_pids`` are children that are not
    socket workers (the host speed monitor).
    """
    cache_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=common.WORK)
    try:
        runner, points = build_runner(workload, seed, cache_dir)
        errors: List[str] = []
        watcher = None
        if workload == "matrix_serial":
            with hostspeed.pinned(hostspeed.work_cpu()):
                t0 = time.perf_counter()
                for point in points:
                    try:
                        runner.run_point(point)
                    except Exception as exc:  # a failed point is counted
                        errors.append(f"{point.describe()}: {exc!r}")
                t1 = time.perf_counter()
        else:
            watcher = _WorkerRss(ignore_pids)
            watcher.start()
            t0 = time.perf_counter()
            try:
                runner.prefetch_points(points)
            except Exception as exc:
                errors.append(repr(exc))
            t1 = time.perf_counter()
        worker_kib = watcher.stop() if watcher is not None else 0
        accesses = sum(common.simulated_accesses(runner, p) for p in points)
        failed = 0
        counts = dict.fromkeys(MODEL_COUNTS, 0)
        for point in points:
            key = runner.point_key(point)
            got = common.blob_digest(runner, point)
            if got is None or got != refs.get(key):
                failed += 1
                errors.append(f"{key}: blob sha256 {got} != pinned {refs.get(key)}")
                continue
            for name, value in model_counts(runner.lookup(point)[0]).items():
                counts[name] += value
        backend = getattr(runner, "backend", None)
        report = getattr(backend, "last_report", None)
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "workload": workload,
            "wall_s": t1 - t0,
            "start": t0,
            "end": t1,
            "points": len(points),
            "failed": failed,
            "errors": errors,
            "accesses": accesses,
            "point_spans": point_spans(runner.stamps, t0),
            "counts": counts,
            "backend": {
                **{k: int(getattr(backend, "last_stats", {}).get(k, 0))
                   for k in BACKEND_COUNTS},
                "completed": report.completed if report else 0,
            } if backend is not None else {},
            "rss_kib": self_kib + worker_kib,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def point_spans(stamps: dict, t0: float) -> List[Tuple[float, float]]:
    """``(start, end)`` of every installed point.

    A point runs from its worker's previous install (or the start of the
    pass) to its own install.
    """
    last: Dict[Optional[str], float] = {}
    out = []
    for stamp, worker in sorted(stamps.values()):
        out.append((last.get(worker, t0), stamp))
        last[worker] = stamp
    return out


def measure_setup(workload: str, seed: int,
                  repeats: int) -> List[Tuple[float, float]]:
    """Launch → ready of ``repeats`` fresh interpreters: ``(start, end)`` each.

    They run pinned to :func:`hostspeed.work_cpu` (one process each).
    """
    out = []
    probe = os.path.join(common.HERE, "setup_probe.py")
    with hostspeed.pinned(hostspeed.work_cpu()):
        for _ in range(repeats):
            cache_dir = tempfile.mkdtemp(prefix="setup-", dir=common.WORK)
            try:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, probe, workload, str(seed), cache_dir],
                    stdout=subprocess.PIPE, text=True,
                )
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.close()
                if proc.wait(timeout=60) != 0 or not line.startswith("ready"):
                    raise RuntimeError(f"set-up probe failed: {line!r}")
                out.append((t0, t1))
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def end_to_end(run: dict, setup: List[Tuple[float, float]],
               monitor: "hostspeed.Monitor") -> dict:
    """The end-to-end metrics of one pass, in reference seconds.

    ``matrix_serial`` and every set-up ran pinned, so they are scaled by
    that CPU's speed samples; ``ensemble_socket``'s pass by every CPU's.
    """
    work_cpu = hostspeed.work_cpu()
    cpu = work_cpu if run["workload"] == "matrix_serial" else None
    factor = monitor.factor(run["start"], run["end"], cpu)
    wall = run["wall_s"] * factor
    points = [(end - start) * monitor.factor(start, end, cpu)
              for start, end in run["point_spans"]]
    setups = [(end - start) * monitor.factor(start, end, work_cpu)
              for start, end in setup]
    attempted, failed = run["points"], run["failed"]
    return {
        "attempted": attempted,
        "failed": failed,
        "values": {
            "work_per_s": run["accesses"] / wall,
            "req_p50_ms": statistics.median(points) * 1e3,
            "req_p99_ms": wall * 1e3,
            "peak_rss_mb": common.kib_to_mb(run["rss_kib"]),
            "setup_s": statistics.median(setups),
            "ok_rate": (attempted - failed) / attempted,
        },
        "samples": {"points": len(points), "setup": len(setups)},
        "host": {
            "speed_factor": factor,
            "wall_s": run["wall_s"],
            "accesses_per_s": run["accesses"] / run["wall_s"],
            "setup_s": statistics.median(end - start for start, end in setup),
        },
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------
def run_traced(workload: str, seed: int, ignore_pids=()) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics."""
    refs = common.sweep_references()
    untraced = run_pass(workload, seed, refs, ignore_pids)
    flush_dir = tempfile.mkdtemp(prefix="spans-", dir=common.WORK)
    try:
        tracer = tracing.install(
            flush_dir if workload == "ensemble_socket" else None
        )
        traced = run_pass(workload, seed, refs, ignore_pids)
        tracer.stop()
        if workload == "ensemble_socket":
            worker = tracing.read_worker_files(flush_dir)
            points = [w["point"] for w in worker]
            worker_spans = [s for w in worker for s in w["spans"]]
        else:
            points, worker_spans = list(tracer.points), []
        spans = worker_spans + [
            s for s in tracer.spans if s["pid"] == os.getpid()
        ]
    finally:
        shutil.rmtree(flush_dir, ignore_errors=True)
    return {
        "untraced": untraced,
        "traced": traced,
        "spans": spans,
        "metrics": layer_metrics(workload, untraced, traced, points, spans),
    }


def layer_metrics(workload, untraced, traced, points, spans) -> dict:
    """The per-layer metrics of one traced run (see README)."""
    layers: Dict[str, float] = {}
    for rec in points:
        for name, secs in rec["layers"].items():
            layers[name] = layers.get(name, 0.0) + secs
    sched = {"fires": 0, "pops": 0, "refreshes": 0}
    for rec in points:
        for name, value in (rec.get("scheduler") or {}).items():
            sched[name] += value
    counts = traced["counts"]
    accesses = traced["accesses"]
    wall = traced["wall_s"]

    def us_per(secs: float, n: int) -> float:
        return secs * 1e6 / n if n else 0.0

    def p50(xs: List[float]) -> float:
        return statistics.median(xs) if xs else 0.0

    def stage(name: str, parented: bool = True) -> List[float]:
        return [s["end"] - s["start"] for s in spans if s["name"] == name
                and (s["parent"] is not None) == parented]

    sim_spans = stage("simulate")
    executors = common.SOCKET_WORKERS if workload == "ensemble_socket" else 1
    m = {
        "workloads.self_s": layers.get("workloads", 0.0),
        "workloads.streams_built": sum(r.get("streams_built", 0) for r in points),
        "workloads.us_per_record": us_per(layers.get("workloads", 0.0), accesses),
        "decay.self_s": layers.get("decay", 0.0),
        "decay.fires": sched["fires"],
        "decay.pops": sched["pops"],
        "decay.refreshes": sched["refreshes"],
        "decay.fire_ratio": sched["fires"] / sched["pops"] if sched["pops"] else 0.0,
        "decay.us_per_turnoff": us_per(layers.get("decay", 0.0), sched["fires"]),
        "l2.self_s": layers.get("l2", 0.0),
        "l2.us_per_l2_access": us_per(layers.get("l2", 0.0), counts["l2_accesses"]),
        "energy.self_s": layers.get("energy", 0.0),
        "harness.overhead_frac": 1.0 - sum(sim_spans) / (executors * wall),
        "point.simulate_s": p50(sim_spans),
        "point.lookup_ms": p50(stage("lookup")) * 1e3,
        "point.install_ms": p50(
            stage("install", parented=workload == "matrix_serial")) * 1e3,
    }
    for name in ("cpu", "sim", "l1", "coherence"):
        m[f"{name}.self_s"] = layers.get(name, 0.0)
        m[f"{name}.us_per_access"] = us_per(layers.get(name, 0.0), accesses)
    for name in MODEL_COUNTS:
        m[f"model.{name}"] = counts[name]
    if workload == "ensemble_socket":
        b = traced["backend"]
        ends: Dict[int, float] = {}
        for s in spans:
            if s["name"] == "point":
                ends[s["pid"]] = max(ends.get(s["pid"], 0.0), s["end"])
        m.update({
            f"backend.{k}": b[k] for k in BACKEND_COUNTS
        })
        m["backend.useful_ratio"] = b["completed"] / b["served"] if b["served"] else 0.0
        m["backend.install_ms"] = p50(stage("install", parented=False)) * 1e3
        m["backend.worker_busy_frac"] = sum(sim_spans) / (executors * wall)
        m["backend.tail_s"] = traced["end"] - min(ends.values()) if ends else 0.0
    # host seconds: the sampler shares the CPUs with the speed monitor,
    # whose samples would read the tracing itself as a slower host
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    m["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return m
