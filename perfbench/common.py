"""Shared definitions of the paper-workload benchmark.

Paths, the workload seed mapping, the point lists of the two sweep
workloads, reference digests, and small measurement helpers (peak RSS).
Everything here drives the program through its public API; nothing in
``src/`` is modified.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "seed_engine_blobs.json")
PAPER_SPEC = os.path.join(ROOT, "specs", "paper_matrix.toml")
SERVE_SPEC = os.path.join(HERE, "serve_mix.toml")
REFS = os.path.join(HERE, "refs")
#: scratch space of the benchmark inside the checkout (git-ignored)
WORK = os.path.join(ROOT, ".perfbench")

#: run context shared by every workload (``check_scale``'s minimum)
SCALE = 0.04
N_CORES = 4

#: ``matrix_serial``: the paper-matrix cells the golden file pins
MATRIX_CELLS = (("mpeg2enc", 1), ("water_ns", 2))

#: ``ensemble_socket``: seed replicas of every paper benchmark's baseline
#: (12 points: a run takes 15 to 30 s, so 22 runs of each workload fit the
#: evaluation's time budget even when the host is slow)
ENSEMBLE_REPLICAS = 2
ENSEMBLE_SIZE_MB = 1
SOCKET_WORKERS = 2

#: seeds whose reference digests are pinned: the golden's seed 1, a pool
#: any ``--seed`` folds into, and one held-out seed outside the pool
SEED_POOL = tuple(range(1, 11))
HELD_OUT_SEED = 1009


class MissingSource(RuntimeError):
    """The benchmark is not running inside a checkout of the repository."""


def import_repro() -> None:
    """Put the checkout's ``src`` on ``sys.path`` (the repo is not installed)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSource(f"no repro package under {SRC}")
    if not os.path.isfile(GOLDEN):
        raise MissingSource(f"golden digests missing: {GOLDEN}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def workload_seed(seed: int) -> int:
    """The workload seed a ``--seed`` selects.

    Pinned seeds map to themselves; any other value folds into
    :data:`SEED_POOL`, so every run is checked against reference digests.
    """
    if seed in SEED_POOL or seed == HELD_OUT_SEED:
        return seed
    return SEED_POOL[(seed - SEED_POOL[0]) % len(SEED_POOL)]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Point lists
# ---------------------------------------------------------------------------
def matrix_points(runner) -> list:
    """The 16 ``matrix_serial`` points, in ``paper_matrix.toml`` order."""
    from repro.harness.spec import load_spec

    points = [
        p
        for p in runner.expand_spec(load_spec(PAPER_SPEC))
        if (p.workload, p.total_mb) in MATRIX_CELLS
    ]
    if len(points) != 8 * len(MATRIX_CELLS):
        raise RuntimeError(f"paper matrix expanded to {len(points)} cells")
    return points


def ensemble_spec(replicas: int = ENSEMBLE_REPLICAS):
    """Baseline of all six paper benchmarks, ``replicas`` seeds each."""
    from repro.harness.spec import ExperimentSpec
    from repro.scenarios import EnsembleSpec
    from repro.workloads import PAPER_BENCHMARKS

    base = ExperimentSpec(
        name="ensemble_socket",
        workloads=tuple(PAPER_BENCHMARKS),
        sizes_mb=(ENSEMBLE_SIZE_MB,),
        techniques=("baseline",),
    )
    return EnsembleSpec(spec=base, replicas=replicas, seed_stride=1)


def ensemble_points(runner, replicas: int = ENSEMBLE_REPLICAS) -> list:
    """Every replica point; replica seeds stride off the runner's seed."""
    per_replica = ensemble_spec(replicas).expand(
        scale=runner.scale, runner_seed=runner.seed
    )
    return [p for replica in per_replica for p in replica]


def simulated_accesses(runner, point) -> int:
    """Memory accesses one point simulates: every core's whole stream."""
    from repro.workloads import get_workload

    ctx = runner.context_for(point)
    meta = get_workload(
        point.workload,
        n_cores=int(ctx["n_cores"]),
        scale=float(ctx["scale"]),
        seed=int(ctx["seed"]),
    ).meta
    return int(ctx["n_cores"]) * meta.accesses_per_core


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------
def golden_matrix_digests() -> Dict[str, str]:
    """The 16 seed-1 matrix digests, read in place from the golden file."""
    golden = load_json(GOLDEN)
    refs = dict(golden["fast"])
    refs.update(
        (k, v)
        for k, v in golden["slow"].items()
        if k.startswith("water_ns-") and "-2MB-" in k
    )
    return refs


def sweep_references() -> Dict[str, str]:
    """Cache key → blob sha256 for every pinned sweep point."""
    refs = golden_matrix_digests()
    for name in ("matrix_serial", "ensemble_socket"):
        path = os.path.join(REFS, f"{name}.json")
        if os.path.isfile(path):
            refs.update(load_json(path)["digests"])
    return refs


def blob_digest(runner, point) -> Optional[str]:
    """sha256 of the installed cache blob of ``point`` (None if absent)."""
    path = runner.cache.path_for(runner.point_key(point))
    if not os.path.isfile(path):
        return None
    return sha256_file(path)


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
def status_kib(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` size such as ``VmHWM``, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc`` task lists)."""
    out: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
    except OSError:
        pass
    return out


def kib_to_mb(kib: float) -> float:
    return kib * 1024.0 / 1e6
