"""Capture the benchmark's reference digests from serial runs.

Usage (from the repository root)::

    python3 perfbench/capture.py matrix     # refs/matrix_serial.json + refs/serve_cache.json
    python3 perfbench/capture.py ensemble   # refs/ensemble_socket.json
    python3 perfbench/capture.py serve      # refs/serve_mix.json (needs serve_cache.json)

Every point is simulated serially by :class:`SweepRunner` into a fresh
result cache and pinned by the sha256 of its cache blob.  The seed-1
matrix cells are checked against ``tests/golden/seed_engine_blobs.json``
(they are not copied: the benchmark reads them in place) and their
decoded blobs become the result cache ``serve_mix`` mounts.  References
are captured once, at the commit that defines the benchmark; a later
change must reproduce them, not recapture them.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import common

ENSEMBLE_SEEDS = tuple(range(1, 14)) + tuple(
    range(common.HELD_OUT_SEED, common.HELD_OUT_SEED + 4)
)


def _runner(cache_dir: str, seed: int):
    from repro.harness import SweepRunner

    return SweepRunner(
        scale=common.SCALE,
        seed=seed,
        n_cores=common.N_CORES,
        cache_dir=cache_dir,
        verbose=False,
    )


def _pin(runner, points) -> dict:
    out = {}
    for point in points:
        runner.run_point(point)
        out[runner.point_key(point)] = common.blob_digest(runner, point)
        print(f"  {runner.point_key(point)} {out[runner.point_key(point)]}", flush=True)
    return out


def write_serve_cache(runner, pinned: dict) -> None:
    """The seed-1 blobs, as their exact text, for ``serve_mix``'s cache."""
    blobs = {}
    for key in sorted(pinned):
        with open(runner.cache.path_for(key)) as fh:
            blobs[key] = fh.read()
    common.write_json(
        os.path.join(common.REFS, "serve_cache.json"),
        {"comment": "exact text of the seed-1 matrix_serial cache blobs "
         "(golden-checked)", "blobs": blobs},
    )


def capture_matrix(tmp: str) -> None:
    golden = common.golden_matrix_digests()
    digests = {}
    for seed in common.SEED_POOL + (common.HELD_OUT_SEED,):
        runner = _runner(os.path.join(tmp, f"m{seed}"), seed)
        pinned = _pin(runner, common.matrix_points(runner))
        if seed == 1:
            if pinned != golden:
                raise SystemExit("seed-1 matrix does not match the golden file")
            write_serve_cache(runner, pinned)
        else:
            digests.update(pinned)
    common.write_json(
        os.path.join(common.REFS, "matrix_serial.json"),
        {
            "comment": "blob sha256 of the matrix_serial points; seed 1 is "
            "read from tests/golden/seed_engine_blobs.json",
            "scale": common.SCALE,
            "n_cores": common.N_CORES,
            "seeds": [s for s in common.SEED_POOL if s != 1]
            + [common.HELD_OUT_SEED],
            "digests": digests,
        },
    )


def capture_ensemble(tmp: str) -> None:
    from dataclasses import replace

    runner = _runner(os.path.join(tmp, "e"), 1)
    base = common.ensemble_spec(1).spec.expand(scale=runner.scale)
    points = [replace(p, seed=s) for s in ENSEMBLE_SEEDS for p in base]
    common.write_json(
        os.path.join(common.REFS, "ensemble_socket.json"),
        {
            "comment": "blob sha256 of baseline @ 1MB of every paper "
            "benchmark per replica seed, from a serial run",
            "scale": common.SCALE,
            "n_cores": common.N_CORES,
            "seeds": list(ENSEMBLE_SEEDS),
            "digests": _pin(runner, points),
        },
    )


def main(argv) -> int:
    common.import_repro()
    what = argv[0] if argv else ""
    os.makedirs(common.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="capture-", dir=common.WORK)
    try:
        if what == "matrix":
            capture_matrix(tmp)
        elif what == "ensemble":
            capture_ensemble(tmp)
        elif what == "serve":
            import serve

            serve.capture_references(tmp)
        else:
            print(__doc__, file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
