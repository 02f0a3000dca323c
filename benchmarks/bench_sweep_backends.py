"""Engineering benchmark: distribution overhead of the sweep backends.

Not a paper figure — runs the same cold-cache matrix through every
backend (local pool, socket work-stealing with spawned workers, batch
queue with lease-claiming workers) and reports wall-clock next to the serial
runner, re-checking that all four produce identical metrics.  The
interesting number is the *overhead* of each transport over the local
pool: the socket coordinator adds per-task round trips, the batch
backend adds task-file emission plus manifest-driven shard ingest, and
both should stay small against simulation cost even at this tiny scale.

Run standalone for a quick report::

    PYTHONPATH=src python benchmarks/bench_sweep_backends.py

or via pytest (``pytest benchmarks/bench_sweep_backends.py -s``).
Environment knobs: ``REPRO_BENCH_SCALE`` (default 0.04),
``REPRO_BENCH_JOBS`` (default 2).
"""

import os
import tempfile
import time

from repro.harness.backends import BatchQueueBackend, SocketWorkStealingBackend
from repro.harness.executor import ParallelSweepRunner
from repro.harness.runner import SweepRunner

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "2"))

#: 2 workloads × 1 size × 2 techniques (+2 baseline twins) = 6 simulations
BENCHMARKS = ("uniform", "pingpong")
SIZES = (1,)
TECHNIQUES = ("protocol", "decay64K")


def _sweep(runner):
    return runner.sweep(
        benchmarks=BENCHMARKS, sizes=SIZES, techniques=TECHNIQUES
    )


def _timed(runner):
    t0 = time.perf_counter()
    metrics = _sweep(runner)
    return time.perf_counter() - t0, metrics


def run_comparison(jobs: int = JOBS, scale: float = SCALE):
    """Cold-cache sweep through every backend; returns {name: seconds}."""
    times = {}
    t_serial, reference = _timed(
        SweepRunner(scale=scale, cache_dir=None, verbose=False)
    )
    times["serial"] = t_serial

    with tempfile.TemporaryDirectory() as tmp:
        backends = {
            "local": (None, os.path.join(tmp, "local")),
            "socket": (
                SocketWorkStealingBackend(spawn_workers=jobs, timeout=600),
                os.path.join(tmp, "socket"),
            ),
            "batch": (
                BatchQueueBackend(
                    queue_dir=os.path.join(tmp, "queue"),
                    spawn_workers=jobs,
                    timeout=600,
                ),
                os.path.join(tmp, "batch"),
            ),
        }
        for name, (backend, cache_dir) in backends.items():
            elapsed, metrics = _timed(
                ParallelSweepRunner(
                    scale=scale,
                    cache_dir=cache_dir,
                    verbose=False,
                    jobs=jobs,
                    backend=backend,
                )
            )
            assert metrics == reference, f"{name} diverged from serial"
            times[name] = elapsed

    report = ", ".join(f"{name} {t:.1f}s" for name, t in times.items())
    overhead = {
        name: times[name] - times["local"] for name in ("socket", "batch")
    }
    print(
        f"\n[bench_sweep_backends] scale={scale} jobs={jobs} "
        f"cores={os.cpu_count()}: {report}; overhead vs local: "
        f"socket +{overhead['socket']:.1f}s, batch +{overhead['batch']:.1f}s",
        flush=True,
    )
    return times


def test_backends_identical_and_overhead_bounded():
    """All backends agree with serial; transports add bounded overhead."""
    times = run_comparison()
    # the transports must not dominate: allow generous slack for CI noise,
    # but catch pathological regressions (e.g. a poll loop gone quadratic)
    for name in ("socket", "batch"):
        assert times[name] < times["serial"] + 30.0, (
            f"{name} backend took {times[name]:.1f}s vs serial "
            f"{times['serial']:.1f}s — transport overhead exploded"
        )


if __name__ == "__main__":
    run_comparison()
