"""Alternating parent/change pairs of the paper-workload benchmark.

Runs ``perfbench/run.py`` from two checkouts, alternating which side
goes first (odd pairs the parent, even pairs the change), and folds the
runs into one JSON document: every pair, per-metric medians and
quartiles with the change's win count, the held-out seed re-check, and
the traced per-layer deltas::

    python3 benchmarks/compare_perfbench.py run PARENT CHANGE --runs DIR \\
        --workload matrix_serial --seeds 1-10 [--trace 1]
    python3 benchmarks/compare_perfbench.py report --runs DIR \\
        --out BENCH_<change>.json [--recheck-seed 1009]

``PARENT`` and ``CHANGE`` are checkouts (``git archive <rev> | tar -x``
works).  Each run's report is kept as
``DIR/<workload>_<side>_s<seed>_t<trace>[_r<n>].out`` (``_r<n>`` numbers
repeated pairs of one seed); perfbench prints its JSON result as the
last line.  Metric directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RUN_FILE = re.compile(r"(?P<workload>\w+?)_(?P<side>parent|change)_s(?P<seed>\d+)"
                      r"_t(?P<trace>[01])(?:_r(?P<rep>\d+))?\.out$")


def parse_seeds(text: str) -> list:
    """``1-10`` or ``1,2,1009`` (or a mix) → list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_stem(runs: str, workload: str, seed: int, trace: int) -> str:
    """Path stem of the next pair at ``seed``: repeats get ``_r2``, ..."""
    stem = os.path.join(runs, f"{workload}_{{side}}_s{seed}_t{trace}")
    rep = 1
    while os.path.exists(stem.format(side="parent") + ".out"):
        rep += 1
        stem = os.path.join(runs, f"{workload}_{{side}}_s{seed}_t{trace}_r{rep}")
    return stem


def run_pairs(args) -> None:
    os.makedirs(args.runs, exist_ok=True)
    dirs = {"parent": args.parent, "change": args.change}
    for i, seed in enumerate(parse_seeds(args.seeds), 1):
        stem = run_stem(args.runs, args.workload, seed, args.trace)
        for side in SIDES if i % 2 else SIDES[::-1]:
            path = stem.format(side=side) + ".out"
            with open(path, "w") as out:
                subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload",
                     args.workload, "--seed", str(seed), "--trace",
                     str(args.trace)],
                    cwd=dirs[side], stdout=out, stderr=subprocess.STDOUT,
                    check=False,
                )
            print(f"{args.workload} seed {seed} {side}: {path}", flush=True)


def load_runs(runs: str) -> dict:
    """(workload, trace, seed, repeat) → side → (result, finish time)."""
    found: dict = {}
    for name in sorted(os.listdir(runs)):
        m = RUN_FILE.match(name)
        if not m:
            continue
        path = os.path.join(runs, name)
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "metrics": {}}
        key = (m["workload"], int(m["trace"]), int(m["seed"]), int(m["rep"] or 1))
        found.setdefault(key, {})[m["side"]] = (result, os.path.getmtime(path))
    return found


def values(result: dict) -> dict:
    return {k: v["value"] for k, v in result.get("metrics", {}).items()}


def pair_record(seed: int, rep: int, sides: dict) -> dict:
    first = min(sides, key=lambda s: sides[s][1])
    return {
        "seed": seed,
        "run": rep,
        "first": first,
        "correct": all(sides[s][0].get("correct") for s in SIDES),
        **{s: values(sides[s][0]) for s in SIDES},
    }


def spread(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, specs: dict) -> dict:
    out = {}
    for name in pairs[0]["parent"]:
        if name not in specs or any(name not in p["change"] for p in pairs):
            continue
        higher = specs[name]["better"] == "higher"
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(par, chg))
        ps, cs = spread(par), spread(chg)
        change = (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
        worse = -change if higher else change
        out[name] = {
            "better": specs[name]["better"],
            "bound": specs[name]["bound"],
            "parent": ps,
            "change": cs,
            "median_change_frac": change,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"])
            > ps["iqr"],
            "within_bound": worse <= specs[name]["bound"],
        }
    return out


def layer_deltas(sides: dict) -> dict:
    par, chg = values(sides["parent"][0]), values(sides["change"][0])
    out = {}
    for name in sorted(par):
        if name in chg:
            b, c = par[name], chg[name]
            out[name] = {
                "parent": b,
                "change": c,
                "delta": c - b,
                "delta_frac": (c - b) / b if b else None,
            }
    return out


def report(args) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    runs = load_runs(args.runs)
    doc: dict = {
        "about": args.about,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {},
        "recheck": {},
        "traced": {},
    }
    for (workload, trace, seed, rep), sides in sorted(runs.items()):
        if set(sides) != set(SIDES):
            continue
        if trace:
            doc["traced"][f"{workload}_seed{seed}_run{rep}"] = layer_deltas(sides)
        elif seed == args.recheck_seed:
            doc["recheck"].setdefault(workload, []).append(
                pair_record(seed, rep, sides)
            )
        else:
            entry = doc["workloads"].setdefault(workload, {"pairs": []})
            entry["pairs"].append(pair_record(seed, rep, sides))
    for entry in doc["workloads"].values():
        if len(entry["pairs"]) >= 2:
            entry["summary"] = summarize(entry["pairs"], specs)
    for workload, pairs in doc["recheck"].items():
        doc["recheck"][workload] = {"pairs": pairs}
        if len(pairs) >= 2:
            doc["recheck"][workload]["summary"] = summarize(pairs, specs)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating pairs")
    run.add_argument("parent")
    run.add_argument("change")
    run.add_argument("--runs", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report", help="fold the runs into one JSON file")
    rep.add_argument("--runs", required=True)
    rep.add_argument("--out", required=True)
    rep.add_argument("--recheck-seed", type=int, default=1009)
    rep.add_argument("--about", default="", help="what the change is")
    args = parser.parse_args(argv)
    (run_pairs if args.cmd == "run" else report)(args)


if __name__ == "__main__":
    main()
