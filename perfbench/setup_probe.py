"""One set-up, from a fresh interpreter to ready (timed by the caller).

``python3 perfbench/setup_probe.py <workload> <seed> <cache_dir>`` imports
``repro``, loads and expands the workload's spec, builds its runner (and
backend) and prints ``ready``; the benchmark times launch → ``ready``.
"""

import sys

import common


def main(workload: str, seed: int, cache_dir: str) -> None:
    common.import_repro()
    from repro.harness import ParallelSweepRunner, SocketWorkStealingBackend, SweepRunner

    ctx = dict(scale=common.SCALE, seed=seed, n_cores=common.N_CORES,
               cache_dir=cache_dir, verbose=False)
    if workload == "matrix_serial":
        points = common.matrix_points(SweepRunner(**ctx))
    else:
        backend = SocketWorkStealingBackend(spawn_workers=common.SOCKET_WORKERS)
        points = common.ensemble_points(ParallelSweepRunner(backend=backend, **ctx))
    print("ready", len(points), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
