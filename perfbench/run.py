"""Paper-workload benchmark of the CMP L2-leakage reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix_serial [--seed 1] \
        [--seconds 10] [--trace 0|1]
    python3 perfbench/run.py --workload all    # the three, one after another

Workloads (see ``perfbench/README.md``):

* ``matrix_serial``   — the paper-matrix cells mpeg2enc @ 1 MB and
  water_ns @ 2 MB under all 8 technique configs, serially through
  ``SweepRunner`` into a fresh result cache, checked against
  ``tests/golden/seed_engine_blobs.json``;
* ``ensemble_socket`` — the baseline of all 6 paper benchmarks @ 1 MB
  under seed replicas, through ``ParallelSweepRunner`` on the socket
  backend with 2 spawned workers;
* ``serve_mix``       — closed-loop load on ``repro-cmp serve-results``
  over a cache of the ``matrix_serial`` cells.

``--trace 0`` prints the end-to-end metrics, with times in reference
seconds (``hostspeed.py``); ``--trace 1`` runs the workload untraced and
traced and prints the per-layer metrics.  A sweep run executes its point
list once; ``--seconds`` is the measured interval of ``serve_mix`` only.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import common
import hostspeed

WORKLOADS = ("matrix_serial", "ensemble_socket", "serve_mix")

#: fresh set-ups timed per run; ``setup_s`` is their median
SETUPS = 5

#: ``PYTHONHASHSEED`` of every process of a run
HASH_SEED = "0"

END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "share",
}

STATEMENTS = (
    "modelled caches start empty; statistics start after the 0.17 warm-up",
    "matrix_serial starts from an empty result cache in a fresh process",
    "the model is unvalidated at scale 0.04 against PAPER.md section 1's "
    "full-scale numbers, so this benchmark gives no error figure",
)

#: counts a deterministic program repeats exactly (run-to-run drift check)
EXACT_PREFIXES = ("model.", "decay.fires", "decay.pops", "decay.refreshes",
                  "backend.served", "backend.requeued", "backend.expired",
                  "workloads.streams_built")


def per_layer_units() -> dict:
    doc = common.load_json(os.path.join(common.ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------
def cpu_ticks():
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def source_digest() -> str:
    """sha256 of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for root in (os.path.join(common.SRC, "repro"), common.HERE):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, common.ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(common.ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_record(args, workload_seed: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": workload_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def close_record(record: dict, ticks0, t0: float, monitor) -> None:
    steal, total = cpu_ticks()
    record["loadavg_1m_end"] = os.getloadavg()[0]
    record["steal_share"] = (steal - ticks0[0]) / max(1, total - ticks0[1])
    record["run_wall_s"] = time.perf_counter() - t0
    record["host_sample_ms"] = {
        cpu: statistics.median(ms for _, ms in samples)
        for cpu, samples in monitor.samples.items()
    }


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------
def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.startswith(EXACT_PREFIXES) and isinstance(v, int)}


def count_drift(record: dict, counts: dict, flags: list) -> None:
    """Compare with an earlier traced run of the same source and seed."""
    path = os.path.join(common.WORK, "counts",
                        f"{record['workload']}-seed{record['workload_seed']}.json")
    seen = common.load_json(path) if os.path.isfile(path) else {}
    earlier = seen.get(record["source_sha256"])
    if earlier is None:
        seen[record["source_sha256"]] = counts
        common.write_json(path, seen)
    else:
        for name, value in counts.items():
            if name in earlier and earlier[name] != value:
                flags.append(f"COUNT DRIFT {name}: {earlier[name]} earlier, "
                             f"{value} now")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def run_sweep(args, wseed: int, flags: list, monitor):
    import sweeps

    if not args.trace:
        setup = sweeps.measure_setup(args.workload, wseed, SETUPS)
        run = sweeps.run_pass(args.workload, wseed, common.sweep_references(),
                              ignore_pids=monitor.pids)
        monitor.stop()
        return sweeps.end_to_end(run, setup, monitor), None, run["errors"], None
    tr = sweeps.run_traced(args.workload, wseed, monitor.pids)
    errors = tr["untraced"]["errors"] + tr["traced"]["errors"]
    layer = tr["metrics"]
    for name in sweeps.MODEL_COUNTS:  # the two passes must agree exactly
        a, b = tr["untraced"]["counts"][name], tr["traced"]["counts"][name]
        if a != b:
            flags.append(f"COUNT DRIFT model.{name}: {a} untraced, {b} traced")
    for name in sweeps.EXACT_BACKEND_COUNTS if args.workload == "ensemble_socket" else ():
        a, b = tr["untraced"]["backend"][name], tr["traced"]["backend"][name]
        if a != b:
            flags.append(f"COUNT DRIFT backend.{name}: {a} untraced, {b} traced")
    counted = {"attempted": sum(tr[k]["points"] for k in ("untraced", "traced")),
               "failed": sum(tr[k]["failed"] for k in ("untraced", "traced"))}
    return counted, layer, errors, tr["spans"]


def run_serve(args, monitor):
    import serve

    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=common.WORK)
    try:
        serve.prepare_cache(cache_dir)  # untimed, before set-up
        if not args.trace:
            run = serve.measure(args.seed, args.seconds, SETUPS, cache_dir)
            monitor.stop()
            return serve.end_to_end(run, monitor), None, run["errors"], None
        tr = serve.run_traced(args.seed, args.seconds, cache_dir)
        records = tr["untraced"]["records"] + tr["traced"]["records"]
        counted = {"attempted": len(records),
                   "failed": sum(1 for r in records if not r[3])}
        errors = tr["untraced"]["errors"] + tr["traced"]["errors"]
        return counted, tr["metrics"], errors, tr["spans"]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured interval of serve_mix")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a shell ignores SIGINT in the jobs it starts in the background, and
    # children inherit that; serve-results (and its traced wrapper, which
    # writes its samples on the way out) stops on SIGINT, so restore it
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "all":
        return run_all(args)
    try:
        common.import_repro()
    except common.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    ticks0 = cpu_ticks()
    os.makedirs(os.path.join(common.WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(common.WORK, "tmp")
    tempfile.tempdir = None
    wseed = args.seed if args.workload == "serve_mix" else common.workload_seed(args.seed)
    record = run_record(args, wseed)
    flags: list = []
    monitor = hostspeed.Monitor()
    try:
        if args.workload == "serve_mix":
            e2e, layer, errors, spans = run_serve(args, monitor)
        else:
            e2e, layer, errors, spans = run_sweep(args, wseed, flags, monitor)
    finally:
        monitor.stop()
    if layer is not None:
        units = per_layer_units()
        layer = {name: layer.get(name, 0) for name in units}
        count_drift(record, exact_counts(layer), flags)
        layer["counts.drift"] = sum(1 for f in flags if f.startswith("COUNT DRIFT"))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        trace_dir = os.path.join(common.WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"),
                  "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e["values"].items()}
    close_record(record, ticks0, t0, monitor)
    report(record, e2e, layer, errors, flags)
    common.write_json(
        os.path.join(common.WORK, "runs",
                     f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        {"record": record, "end_to_end": e2e, "per_layer": layer,
         "flags": flags, "errors": errors},
    )
    print(json.dumps({
        "correct": e2e["failed"] == 0,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in turn, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
        ).returncode
    return status


def report(record: dict, e2e: dict, layer, errors: list, flags: list) -> None:
    print(f"# perfbench {record['workload']}  seed {record['seed']} "
          f"(workload seed {record['workload_seed']})  trace {record['trace']}")
    for key in ("nproc", "python", "git_commit", "source_sha256",
                "loadavg_1m_start", "loadavg_1m_end", "steal_share",
                "host_sample_ms", "run_wall_s"):
        print(f"  {key:18s} {record[key]}")
    for line in STATEMENTS:
        print(f"  note: {line}")
    print(f"  operations: {e2e['attempted']} attempted, {e2e['failed']} failed "
          f"(error_rate {e2e['failed'] / max(1, e2e['attempted']):.6f})")
    if layer is None:
        print(f"  samples {e2e['samples']}; times in reference seconds "
              f"(perfbench/hostspeed.py)")
        for name, value in e2e["values"].items():
            print(f"  {name:24s} {value:.6g} {END_TO_END_UNITS[name]}")
        for name, value in e2e["host"].items():
            print(f"  host.{name:19s} {value:.6g}")
    else:
        for name, value in layer.items():
            text = str(value) if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name:32s} {text}")
    for line in flags:
        print(f"  FLAG {line}")
    for line in errors[:20]:
        print(f"  error: {line}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashes are randomised per process by default, and with
        # them dict layouts: peak RSS then moves by about 5 MB from run to
        # run; the same seed in every process makes it repeat
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
