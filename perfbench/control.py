"""Control run for the sampler's ``workloads`` layer (tracer validation).

``python3 perfbench/control.py`` simulates every seed-1 ``matrix_serial``
point three ways, in rotating order, :data:`REPEATS` times:

* ``gen``     — fed by the workload's generators (what the sweep runs);
* ``sampled`` — the same, with the stack sampler of the traced run on;
* ``list``    — fed by pre-drained, list-backed ``Workload`` objects, so
  no generator code runs inside the timed call.

The per-point median of ``gen − list`` is the host time the ``workloads``
layer costs, measured from outside; the sampler's ``workloads`` time on
the ``sampled`` runs is what the traced run reports.  ``sampled − gen``
is the sampler's overhead.  Prints one JSON summary as its last line.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import common


REPEATS = 3
SEED = 1


def main() -> int:
    common.import_repro()
    import tracing
    from repro.harness import SweepRunner
    from repro.sim.simulator import simulate
    from repro.workloads import Workload, get_workload

    runner = SweepRunner(scale=common.SCALE, seed=SEED,
                         n_cores=common.N_CORES, cache_dir=None, verbose=False)
    points = common.matrix_points(runner)
    generators, drained = {}, {}
    for point in points:
        if point.workload in generators:
            continue
        wl = get_workload(point.workload, n_cores=common.N_CORES,
                          scale=common.SCALE, seed=SEED)
        lists = [list(s) for s in wl.streams(common.N_CORES)]
        generators[point.workload] = wl
        drained[point.workload] = Workload(
            wl.meta, lambda n, lists=lists: [iter(x) for x in lists])

    def timed(point, kind):
        cfg = runner.config_for(point)
        wl = drained[point.workload] if kind == "list" else generators[point.workload]
        sampler = None
        if kind == "sampled":
            sampler = tracing.Sampler(threading.get_ident())
            sampler.start()
        t0 = time.perf_counter()
        simulate(cfg, wl, warmup_fraction=runner.warmup)
        wall = time.perf_counter() - t0
        layer = 0.0
        if sampler is not None:
            sampler.stop()
            layer = sampler.totals.get("workloads", 0.0)
        return wall, layer

    kinds = ["gen", "sampled", "list"]
    rows = {}
    for rep in range(REPEATS):
        for i, point in enumerate(points):
            row = rows.setdefault(point.describe(), {k: [] for k in kinds + ["layer"]})
            shift = (rep + i) % 3
            for kind in kinds[shift:] + kinds[:shift]:
                wall, layer = timed(point, kind)
                row[kind].append(wall)
                if kind == "sampled":
                    row["layer"].append(layer)
        print(f"repeat {rep + 1}/{REPEATS} done", flush=True)
    med = {name: {k: statistics.median(v) for k, v in row.items()}
           for name, row in rows.items()}
    for name, m in med.items():
        print(f"  {name:28s} gen {m['gen']:.3f}  sampled {m['sampled']:.3f}  "
              f"list {m['list']:.3f}  control {m['gen'] - m['list']:.3f}  "
              f"sampler workloads {m['layer']:.3f}")
    total = {k: sum(m[k] for m in med.values()) for k in kinds + ["layer"]}
    summary = {
        "points": len(points),
        "repeats": REPEATS,
        "gen_s": total["gen"],
        "list_s": total["list"],
        "sampled_s": total["sampled"],
        "control_workloads_s": total["gen"] - total["list"],
        "sampler_workloads_s": total["layer"],
        "sampler_overhead_frac": total["sampled"] / total["gen"] - 1.0,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
