"""Command-line interface: ``repro-cmp``.

Examples::

    repro-cmp list                       # experiments and workloads
    repro-cmp table1                     # Table I, no simulation
    repro-cmp fig5a --scale 0.05         # regenerate Fig 5(a), small scale
    repro-cmp fig5a --jobs 8             # same, sweep on 8 worker processes
    repro-cmp fig6b --sizes 4            # per-benchmark IPC loss
    repro-cmp fig3a --csv fig3a.csv      # also write the table as CSV
    repro-cmp point water_ns 4 decay64K  # one sweep point, all metrics
    repro-cmp cache stats                # result-cache footprint per version
    repro-cmp cache prune                # drop stale/corrupt cache entries
    repro-cmp cache merge OTHER_DIR      # ingest a synced cache/shard

Experiment specs (the declarative scenario API; see ``specs/``)::

    repro-cmp spec validate specs/*.toml           # lint scenario files
    repro-cmp spec expand specs/paper_matrix.toml  # list points (by digest)
    repro-cmp spec diff specs/a.toml specs/b.toml  # compare two point sets
    repro-cmp spec load specs/paper_matrix.toml    # normalized JSON form
    repro-cmp run specs/paper_matrix.toml --jobs 8 # execute a scenario
    repro-cmp run my_scenario.toml --backend batch --csv out.csv
    repro-cmp run specs/smoke.toml --replicas 5    # seed ensemble + 95% CIs

Scenario families and ensembles (see ``repro.scenarios``)::

    repro-cmp scenario list                        # registered families
    repro-cmp scenario expand sizing_sensitivity   # points of one family
    repro-cmp scenario run mix_smoke --replicas 2 --scale 0.05
    repro-cmp scenario save core_scaling my.toml   # freeze one as a file

Distributed sweeps (see ``docs/architecture.md``)::

    repro-cmp fig5a --backend socket --port 7777   # + workers that pull
    repro-cmp work 127.0.0.1:7777                  # a socket worker shell
    repro-cmp serve --port 7777 --jobs 2           # coordinator, no figure
    repro-cmp fig5a --backend batch --queue-dir q  # task file + ingest
    repro-cmp work --queue-dir q                   # a batch worker shell
    repro-cmp run specs/smoke.toml --backend socket --lease-timeout 30
    repro-cmp run specs/paper_matrix.toml --resume # report cached/missing
    repro-cmp run s.toml --backend batch --fault-plan chaos.json  # chaos

Result queries and the HTTP result service (see ``repro.serving``)::

    repro-cmp query '' specs/smoke.toml            # every cached row
    repro-cmp query 'workload=uniform sort=-energy_reduction limit=5'
    repro-cmp query 'size=4 fields=digest,technique,ipc_loss' --json
    repro-cmp run specs/smoke.toml --query 'technique=protocol'
    repro-cmp serve-results specs/smoke.toml --port 8031
    # then: curl localhost:8031/v1/query?workload=uniform

File-backed traces (see ``repro.traces``)::

    repro-cmp trace capture uniform u.rtr --scale 0.05   # synthetic dump
    repro-cmp trace capture fmm fmm.rtr --limit 5000     # CI-sized slice
    repro-cmp trace convert log.csv app.rtr --trace-format csv
    repro-cmp trace info u.rtr                           # header + stats
    repro-cmp trace validate u.rtr                       # full decode
    repro-cmp point trace:u.rtr 4 decay64K               # replay a trace
    repro-cmp run specs/trace_smoke.toml                 # traces in specs
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from typing import List, Optional, Tuple

from ..sim.config import PAPER_TOTAL_L2_MB
from ..workloads.registry import PAPER_BENCHMARKS, check_workload, list_workloads
from .backends import (
    BACKENDS,
    DEFAULT_LEASE_TIMEOUT,
    BatchQueueBackend,
    SocketWorkStealingBackend,
    SweepBackend,
    resolve_jobs,
    run_batch_worker,
    worker_main,
)
from .executor import ParallelSweepRunner
from .faults import FaultPlan
from .figures import (
    EXPERIMENTS,
    FigureTable,
    ensemble_table,
    format_cores,
    run_experiment,
    show_cores_column,
    table1,
)
from .query import QueryError, ResultQuery, ResultStore
from .result_cache import ResultCache
from .runner import CACHE_VERSION, SweepRunner
from .spec import SpecError, load_spec, paper_matrix_spec, save_spec

#: default workload time-dilation when neither flag nor spec sets one
DEFAULT_SCALE = 0.1

#: default workload seed when neither flag nor spec sets one
DEFAULT_SEED = 1


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-cmp`` argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-cmp",
        description="Reproduce the tables/figures of Monchiero et al., "
        "ICPP 2009 (CMP L2 leakage via coherence + decay).",
    )
    p.add_argument(
        "command",
        help="experiment id (fig3a..fig6b, table1), 'list', 'point', "
        "'spec', 'scenario', 'run', 'cache', 'serve', 'work', 'query', "
        "'serve-results', or 'trace'",
    )
    p.add_argument("args", nargs="*", help="command-specific arguments")
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        help=f"workload time-dilation factor (default {DEFAULT_SCALE}; "
        "1.0 = full paper-equivalent length; a spec file's [run] "
        "table supplies the default for 'run')",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="run the spec/scenario as an N-seed ensemble and report "
        "mean ± 95%% CI tables (default: the spec's [ensemble] table, "
        "else a single run)",
    )
    p.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated total L2 MB (default 1,2,4,8)",
    )
    p.add_argument(
        "--benchmarks",
        type=str,
        default=None,
        help="comma-separated workload names",
    )
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="local worker processes for the sweep (1 = serial, "
        "0 = all cores)",
    )
    p.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default="local",
        help="sweep execution backend (default local; socket = TCP "
        "work-stealing coordinator, batch = task file + shard ingest)",
    )
    p.add_argument(
        "--bind",
        type=str,
        default="127.0.0.1",
        metavar="HOST",
        help="socket backend: address the coordinator listens on",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="socket backend: coordinator port (0 = ephemeral, printed "
        "at startup)",
    )
    p.add_argument(
        "--queue-dir",
        type=str,
        default=".repro_queue",
        metavar="DIR",
        help="batch backend: queue directory (task file + result shards)",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="socket/batch backend: spawn no local workers; wait for "
        "external 'repro-cmp work' shells",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="socket/batch backend: give up after this long",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        metavar="SECONDS",
        help="socket/batch backend: requeue a worker's point after this "
        "long without a heartbeat/lease renewal (default %(default)g)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="run/scenario run: report the cached-vs-missing partition "
        "of the planned campaign before executing the missing points "
        "(already-cached points are always skipped)",
    )
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="PATH",
        help="socket/batch backend and workers: inject the failures "
        "scripted in this FaultPlan JSON file (chaos testing)",
    )
    p.add_argument(
        "--worker-id",
        type=str,
        default=None,
        help="worker name (default host-pid)",
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=".repro_cache",
        help="result cache directory (default .repro_cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    p.add_argument(
        "--csv",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the experiment table as CSV to PATH",
    )
    p.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="query: emit the canonical JSON document (byte-identical "
        "to the HTTP /v1/query response) instead of a table",
    )
    p.add_argument(
        "--query",
        type=str,
        default=None,
        metavar="FILTER",
        help="run/scenario run: restrict and order the reported rows "
        "with a result-query filter string (e.g. "
        "'workload=uniform sort=-energy_reduction limit=5')",
    )
    p.add_argument(
        "--simulate",
        action="store_true",
        help="query/serve-results: simulate missing points on demand "
        "instead of skipping them (reads stay read-only by default)",
    )
    p.add_argument(
        "--cores",
        type=int,
        default=None,
        metavar="N",
        help="trace capture/convert: core count of the trace (capture "
        "default 4; convert default infers from the log's core ids)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="trace capture: keep at most N records per core (CI-sized "
        "smoke traces)",
    )
    p.add_argument(
        "--trace-format",
        choices=("csv", "mtrace"),
        default="csv",
        help="trace convert: input log format (default csv)",
    )
    p.add_argument("--quiet", action="store_true")
    return p


def _cache_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp cache stats|prune|manifest|merge``."""
    sub = args.args[0] if args.args else "stats"
    cache = ResultCache(args.cache_dir, CACHE_VERSION)
    if sub == "stats":
        print(cache.stats().render())
        return 0
    if sub == "prune":
        print(cache.prune().render())
        return 0
    if sub == "manifest":
        print(cache.write_manifest())
        return 0
    if sub == "merge":
        if len(args.args) != 2:
            print("usage: repro-cmp cache merge <source-dir>", file=sys.stderr)
            return 2
        if not os.path.isdir(args.args[1]):
            print(f"cache merge: {args.args[1]}: not a directory", file=sys.stderr)
            return 1
        print(cache.import_entries(args.args[1]).render())
        return 0
    print(
        "usage: repro-cmp cache [stats|prune|manifest|merge <dir>]",
        file=sys.stderr,
    )
    return 2


def _load_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Load the ``--fault-plan`` file; ``None`` when unset."""
    if args.fault_plan is None:
        return None
    try:
        return FaultPlan.load(args.fault_plan)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"bad --fault-plan {args.fault_plan}: {exc}")


def _distributed_backend(
    args: argparse.Namespace, name: Optional[str] = None
) -> Optional[SweepBackend]:
    """Socket/batch backend per the CLI flags; ``None`` means local."""
    name = name or args.backend
    spawn = 0 if args.wait else resolve_jobs(args.jobs)
    if name == "socket":
        return SocketWorkStealingBackend(
            host=args.bind,
            port=args.port,
            spawn_workers=spawn,
            timeout=args.timeout,
            lease_timeout=args.lease_timeout,
            fault_plan=_load_fault_plan(args),
        )
    if name == "batch":
        return BatchQueueBackend(
            queue_dir=args.queue_dir,
            spawn_workers=spawn,
            timeout=args.timeout,
            lease_timeout=args.lease_timeout,
            fault_plan=_load_fault_plan(args),
        )
    return None


def make_runner(
    args: argparse.Namespace,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    n_cores: Optional[int] = None,
    warmup: Optional[float] = None,
    trace_root: Optional[str] = None,
) -> SweepRunner:
    """Build the sweep runner the ``--backend``/``--jobs`` flags select.

    The keyword overrides carry a spec's requested run context
    (``repro-cmp run``); explicit CLI flags already won inside
    :meth:`~repro.harness.spec.ExperimentSpec.context`, and anything
    still unset falls back to the harness defaults.  ``trace_root``
    (the spec file's directory) anchors relative ``trace:`` workload
    paths.
    """
    scale = scale if scale is not None else args.scale
    scale = scale if scale is not None else DEFAULT_SCALE
    seed = seed if seed is not None else args.seed
    seed = seed if seed is not None else DEFAULT_SEED
    kwargs = dict(
        scale=scale,
        seed=seed,
        cache_dir=None if args.no_cache else args.cache_dir,
        verbose=not args.quiet,
        trace_root=trace_root,
    )
    if n_cores is not None:
        kwargs["n_cores"] = int(n_cores)
    if warmup is not None:
        kwargs["warmup_fraction"] = float(warmup)
    if args.wait and args.backend == "local":
        raise SystemExit(
            "--wait only applies to distributed backends; add "
            "--backend socket or --backend batch"
        )
    backend = _distributed_backend(args)
    if backend is None and args.jobs == 1:
        return SweepRunner(**kwargs)
    return ParallelSweepRunner(jobs=args.jobs, backend=backend, **kwargs)


def _matrix_from_args(args: argparse.Namespace) -> Tuple[List[str], List[int]]:
    """Resolve the (benchmarks, sizes) selection flags.

    A malformed ``--sizes`` value or an unknown benchmark prints one
    error line and exits 2.
    """
    try:
        sizes = (
            [int(s) for s in args.sizes.split(",")]
            if args.sizes
            else list(PAPER_TOTAL_L2_MB)
        )
    except ValueError:
        print(
            f"bad --sizes {args.sizes!r}; expected comma-separated MB, e.g. 1,4",
            file=sys.stderr,
        )
        raise SystemExit(2) from None
    benchmarks = (
        args.benchmarks.split(",") if args.benchmarks else list(PAPER_BENCHMARKS)
    )
    try:
        for name in benchmarks:
            check_workload(name)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(2) from None
    return benchmarks, sizes


def _spec_paths(patterns: List[str]) -> List[str]:
    """Expand spec-file arguments (shells without globbing, CI quoting)."""
    paths: List[str] = []
    for pattern in patterns:
        hits = sorted(glob.glob(pattern))
        paths.extend(hits if hits else [pattern])
    return paths


def _load_expanded(path: str, cli_scale: Optional[float]):
    """Load + strictly validate a spec file and expand its points.

    Scale resolves exactly like ``repro-cmp run`` would for this file,
    so the expanded configs/digests match what a run of the same spec
    executes.  Returns ``(spec, scale, points)``.
    """
    spec = load_spec(path)
    spec.validate(strict=True)
    ctx = spec.context(scale=cli_scale)
    scale = ctx.get("scale", DEFAULT_SCALE)
    return spec, scale, spec.expand(scale=scale)


def _print_points(points) -> None:
    """One line per point, deterministically ordered by digest.

    Sorting by the process-independent digest keeps ``spec expand``
    output byte-stable across ``PYTHONHASHSEED`` values and worker
    interleavings — what spec diffs and CI logs compare against.
    """
    for digest, point in sorted((p.digest(), p) for p in points):
        print(f"{point.describe():40s} digest={digest[:12]}")


def _spec_diff(args: argparse.Namespace, patterns: List[str]) -> int:
    """Run ``repro-cmp spec diff A B``: compare expanded point sets."""
    if len(patterns) != 2:
        print(
            "usage: repro-cmp spec diff <A.toml|json> <B.toml|json>",
            file=sys.stderr,
        )
        return 2
    expanded = []
    for path in patterns:
        try:
            expanded.append(_load_expanded(path, args.scale))
        except (OSError, SpecError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            return 2
    (_, _, points_a), (_, _, points_b) = expanded
    by_digest_a = {p.digest(): p for p in points_a}
    by_digest_b = {p.digest(): p for p in points_b}
    only_a = {d: p for d, p in by_digest_a.items() if d not in by_digest_b}
    only_b = {d: p for d, p in by_digest_b.items() if d not in by_digest_a}
    # "changed" = a triple that lost a digest on one side and gained a
    # new one on the other (same coordinates, different resolved
    # hardware/context).  Pairing is per triple and *counted*: a triple
    # that lost 1 digest but gained 2 is one change plus one addition —
    # surplus digests on either side are never silently dropped
    lost_by_triple: dict = {}
    for digest, point in only_a.items():
        lost_by_triple.setdefault(point.triple, []).append(digest)
    gained_by_triple: dict = {}
    for digest, point in only_b.items():
        gained_by_triple.setdefault(point.triple, []).append(digest)
    changed_a: set = set()
    changed_b: set = set()
    for triple, lost in lost_by_triple.items():
        gained = gained_by_triple.get(triple, [])
        for digest_a, digest_b in zip(sorted(lost), sorted(gained)):
            changed_a.add(digest_a)
            changed_b.add(digest_b)
    added = removed = changed = 0
    for digest in sorted(only_a):
        point = only_a[digest]
        kind = "~" if digest in changed_a else "-"
        changed += kind == "~"
        removed += kind == "-"
        print(f"{kind} {point.describe():40s} digest={digest[:12]}")
    for digest in sorted(only_b):
        point = only_b[digest]
        # each paired B digest was reported as changed ("~") from A's side
        if digest in changed_b:
            continue
        added += 1
        print(f"+ {point.describe():40s} digest={digest[:12]}")
    if not (added or removed or changed):
        print(
            f"identical: {len(points_a)} points "
            f"({patterns[0]} == {patterns[1]})"
        )
        return 0
    print(
        f"differ: {added} added, {removed} removed, {changed} changed "
        f"({len(points_a)} -> {len(points_b)} points)"
    )
    return 1


def _spec_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp spec validate|expand|load|diff <file>...``."""
    usage = (
        "usage: repro-cmp spec [validate|expand|load] <spec.toml|json>... "
        "| spec diff A B"
    )
    if not args.args:
        print(usage, file=sys.stderr)
        return 2
    sub, *patterns = args.args
    if sub == "diff":
        return _spec_diff(args, patterns)
    if sub not in ("validate", "expand", "load") or not patterns:
        print(usage, file=sys.stderr)
        return 2
    status = 0
    for path in _spec_paths(patterns):
        try:
            spec, scale, points = _load_expanded(path, args.scale)
        except (OSError, SpecError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            status = 1
            continue
        if sub == "validate":
            print(f"{path}: ok ({spec.name}: {len(points)} points)")
        elif sub == "load":
            sys.stdout.write(spec.to_json())
        else:  # expand
            print(f"# {spec.name}: {len(points)} points (scale={scale})")
            _print_points(points)
    return status


def _metrics_table(spec_name: str, metrics) -> FigureTable:
    """Flat per-point metric table for ``repro-cmp run`` output.

    A ``cores`` column appears only when some point pins ``n_cores``
    (e.g. the core-scaling family; see
    :func:`~repro.harness.figures.show_cores_column`).
    """
    show_cores = show_cores_column(metrics)
    table = FigureTable(
        exp_id=spec_name,
        title="experiment spec results",
        columns=[
            "workload", "MB",
            *(["cores"] if show_cores else []),
            "technique", "energy_red", "ipc_loss", "occupancy", "miss_rate",
        ],
    )
    for i, m in enumerate(metrics):
        table.add_row(
            f"p{i:03d}",
            [
                m.workload,
                str(m.total_mb),
                *([format_cores(m.n_cores)] if show_cores else []),
                m.technique,
                f"{m.energy_reduction * 100:.1f}%",
                f"{m.ipc_loss * 100:.1f}%",
                f"{m.occupancy * 100:.1f}%",
                f"{m.miss_rate * 100:.1f}%",
            ],
        )
    return table


def _emit_table(args: argparse.Namespace, table: FigureTable) -> None:
    """Print a result table and honor the ``--csv`` flag."""
    print(table.render())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(table.to_csv())
        if not args.quiet:
            print(f"[csv] wrote {args.csv}")


def _execute_spec(args: argparse.Namespace, spec) -> int:
    """Run one validated spec (single run, or ensemble) and print tables.

    The ensemble path engages when replication is requested
    (``--replicas``/``[ensemble] replicas``) **or** the spec pins a
    ``base_seed`` — a 1-replica ensemble with a pinned seed must still
    simulate that seed, not the runner default.  A plain spec falls
    through to the per-point table.
    """
    from ..scenarios.ensemble import EnsembleSpec, run_ensemble

    # explicit CLI flags beat the spec's [run] table, which beats the
    # harness defaults
    ctx = spec.context(scale=args.scale, seed=args.seed)
    runner = make_runner(
        args,
        scale=ctx.get("scale"),
        seed=ctx.get("seed"),
        n_cores=ctx.get("n_cores"),
        warmup=ctx.get("warmup"),
        trace_root=spec.base_dir,
    )
    try:
        ensemble = EnsembleSpec.from_spec(spec, replicas=args.replicas)
    except SpecError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    query = _parse_query_flag(args)
    if args.resume:
        _report_resume(args, runner, spec, ensemble)
    if ensemble.replicas > 1 or ensemble.base_seed is not None:
        result = run_ensemble(runner, ensemble, query=query)
        seeds = ensemble.replica_seeds(runner.seed)
        table = ensemble_table(
            spec.name,
            result.aggregated,
            title=f"ensemble results, {ensemble.replicas} replica(s) "
            f"(seeds {seeds[0]}..{seeds[-1]}), mean ± 95% CI",
        )
        _emit_table(args, table)
        return 0
    metrics = runner.run_spec(runner.expand_spec(spec))
    if query is not None:
        metrics = query.apply(metrics)
    _emit_table(args, _metrics_table(spec.name, metrics))
    return 0


def _report_resume(
    args: argparse.Namespace, runner: SweepRunner, spec, ensemble
) -> None:
    """Print the ``--resume`` partition of the planned campaign.

    The cache always makes re-running a spec incremental; ``--resume``
    makes the resumption *visible* — how much of the campaign (every
    replica of every point, baseline twins included) is already settled
    and how much labor remains — before any backend spins up.
    """
    if ensemble.replicas > 1 or ensemble.base_seed is not None:
        points = [
            point
            for replica in ensemble.expand(runner.scale, runner.seed)
            for point in replica
        ]
    else:
        points = spec.expand(scale=runner.scale)
    plan = getattr(runner, "plan_points", None)
    planned = plan(points) if plan is not None else list(points)
    cached, missing = runner.partition_cached(planned)
    print(
        f"[resume] {len(cached)}/{len(planned)} planned points already "
        f"cached; {len(missing)} to run",
        flush=True,
    )


def _run_spec_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp run <spec file>`` through the selected backend."""
    if len(args.args) != 1:
        print(
            "usage: repro-cmp run <spec.toml|spec.json> "
            "[--backend ...] [--jobs N] [--replicas N] [--csv PATH]",
            file=sys.stderr,
        )
        return 2
    path = args.args[0]
    try:
        spec = load_spec(path)
        spec.validate(strict=True)
    except (OSError, SpecError) as exc:
        print(f"{path}: INVALID: {exc}", file=sys.stderr)
        return 1
    return _execute_spec(args, spec)


def _scenario_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp scenario list|expand|run|save ...``.

    Scenario families are registered templates
    (:mod:`repro.scenarios.templates`) that build ordinary specs;
    ``run`` executes one through the selected backend — with
    ``--replicas``/``[ensemble]`` replication — and ``save`` freezes
    one into a spec file for hand-editing and shipping.
    """
    from ..scenarios.templates import get_scenario, scenario_names

    usage = (
        "usage: repro-cmp scenario list | scenario expand <name> | "
        "scenario run <name> [--replicas N] [--backend ...] [--csv PATH] "
        "| scenario save <name> <out.toml|json>"
    )
    sub = args.args[0] if args.args else "list"
    if sub == "list":
        print("scenario families:")
        for name in scenario_names():
            template = get_scenario(name)
            spec = template.build()
            replicas = spec.ensemble.get("replicas", 1)
            print(
                f"  {name:22s} {len(spec.expand()):4d} points x "
                f"{replicas} replica(s)  {template.description}"
            )
        return 0
    if sub not in ("expand", "run", "save") or len(args.args) < 2:
        print(usage, file=sys.stderr)
        return 2
    name = args.args[1]
    try:
        spec = get_scenario(name).build()
        spec.validate(strict=True)
    except (ValueError, SpecError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if sub == "save":
        if len(args.args) != 3:
            print(usage, file=sys.stderr)
            return 2
        try:
            print(save_spec(spec, args.args[2]))
        except (OSError, SpecError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    if sub == "expand":
        from ..scenarios.ensemble import EnsembleSpec

        # resolve scale *and* seed exactly like `scenario run` would, so
        # the previewed replica seeds match what a run will simulate
        ctx = spec.context(scale=args.scale, seed=args.seed)
        scale = ctx.get("scale", DEFAULT_SCALE)
        points = spec.expand(scale=scale)
        try:
            ensemble = EnsembleSpec.from_spec(spec, replicas=args.replicas)
        except SpecError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        seeds = ensemble.replica_seeds(ctx.get("seed", DEFAULT_SEED))
        print(
            f"# {spec.name}: {len(points)} points (scale={scale}), "
            f"{ensemble.replicas} replica(s), seeds {seeds}"
        )
        _print_points(points)
        return 0
    return _execute_spec(args, spec)


def _serve_command(args: argparse.Namespace) -> int:
    """Coordinate a matrix sweep for external workers (no figure).

    Plans the full selected matrix, serves it over TCP until complete —
    with ``--jobs N`` local workers, or none under ``--wait`` (the same
    semantics as the figure commands) — then writes the cache manifest
    so the populated cache is sync-ready.
    """
    if args.backend == "batch":
        print(
            "serve is the socket coordinator; for a batch queue run any "
            "figure command with --backend batch (it emits the task file "
            "and ingests shards)",
            file=sys.stderr,
        )
        return 2
    backend = _distributed_backend(args, name="socket")
    runner = ParallelSweepRunner(
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        cache_dir=None if args.no_cache else args.cache_dir,
        verbose=not args.quiet,
        backend=backend,
    )
    benchmarks, sizes = _matrix_from_args(args)
    n = runner.prefetch(
        benchmarks=benchmarks,
        sizes=sizes,
        techniques=runner.technique_order(),
    )
    print(f"[serve] matrix complete: {n} points simulated")
    if runner.cache is not None:
        print(f"[serve] manifest: {runner.cache.write_manifest()}")
    return 0


def _parse_query_flag(args: argparse.Namespace) -> Optional[ResultQuery]:
    """Parse the ``--query`` filter flag; ``None`` when unset.

    Raises ``SystemExit(2)`` with the parse error on bad filter text, so
    every command that honors the flag rejects it identically.
    """
    if args.query is None:
        return None
    try:
        return ResultQuery.parse(args.query)
    except QueryError as exc:
        raise SystemExit(f"bad --query filter: {exc}")


def _open_store(
    args: argparse.Namespace, spec_arg: Optional[str]
) -> ResultStore:
    """Mount the result store ``query``/``serve-results`` read from.

    ``spec_arg`` is an optional spec-file path; without one the paper's
    full matrix is mounted.  The store resolves scale/seed exactly like
    ``repro-cmp run`` (CLI flags beat the spec's ``[run]`` table), so it
    computes the same cache keys a run of the same spec populated.
    """
    if spec_arg is not None:
        spec = load_spec(spec_arg)
        spec.validate(strict=True)
    else:
        spec = paper_matrix_spec()
    if args.no_cache and not args.simulate:
        raise SystemExit(
            "--no-cache leaves nothing to read from; drop it, or add "
            "--simulate to compute rows on demand"
        )
    return ResultStore.open(
        None if args.no_cache else args.cache_dir,
        spec,
        scale=args.scale,
        seed=args.seed,
        simulate_missing=args.simulate,
        verbose=args.simulate and not args.quiet,
    )


def _query_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp query '<filter>' [spec]`` against the cache.

    The filter string, the selection, and the emitted rows are the same
    objects the HTTP service uses — ``--json`` output is byte-identical
    to ``GET /v1/query`` for the same filter over the same cache.
    """
    from ..serving.wire import encode_json, query_document, rows_csv

    if not args.args or len(args.args) > 2:
        print(
            "usage: repro-cmp query '<filter>' [spec.toml] "
            "[--json] [--csv PATH] [--simulate]\n"
            "  e.g. repro-cmp query 'workload=uniform size=4 "
            "sort=-energy_reduction limit=5' specs/smoke.toml",
            file=sys.stderr,
        )
        return 2
    try:
        query = ResultQuery.parse(args.args[0])
    except QueryError as exc:
        print(f"bad query filter: {exc}", file=sys.stderr)
        return 2
    try:
        store = _open_store(args, args.args[1] if len(args.args) == 2 else None)
    except (OSError, SpecError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    result = store.run_query(query)
    if args.as_json:
        sys.stdout.buffer.write(encode_json(query_document(result)))
        return 0
    if result.metrics:
        print(_metrics_table(result.name, result.metrics).render())
    if args.csv:
        with open(args.csv, "wb") as fh:
            fh.write(rows_csv(result.rows, fields=query.fields or None))
        if not args.quiet:
            print(f"[csv] wrote {args.csv}")
    if not args.quiet:
        print(
            f"[query] {result.matched} row(s) of {result.total} spec "
            f"point(s); {result.missing} not cached"
        )
    return 0


def _serve_results_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp serve-results [spec] --cache-dir D --port P``.

    Mounts the cache read-only behind the async HTTP service and blocks
    until interrupted.  Missing points 404 (the server never simulates
    unless ``--simulate``).
    """
    import asyncio

    from ..serving import ResultServer, ResultService

    if len(args.args) > 1:
        print(
            "usage: repro-cmp serve-results [spec.toml] "
            "[--cache-dir DIR] [--bind HOST] [--port P] [--simulate]",
            file=sys.stderr,
        )
        return 2
    try:
        store = _open_store(args, args.args[0] if args.args else None)
    except (OSError, SpecError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    service = ResultService(store)
    cached = len(store.metrics())
    missing = len(store.missing_points())

    async def _serve() -> int:
        server = ResultServer(service.handle, host=args.bind, port=args.port)
        try:
            await server.start()
        except OSError as exc:
            print(
                f"serve-results: cannot listen on {args.bind}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
        print(
            f"[serve-results] {store.name}: {cached} cached row(s), "
            f"{missing} missing; listening on "
            f"http://{args.bind}:{server.port}/v1/",
            flush=True,
        )
        await server.serve_forever()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        if not args.quiet:
            print("[serve-results] stopped")
    return 0


def _print_trace_info(info: dict) -> None:
    """Readable key-value dump of one trace's info document."""
    header = info.get("header", {})
    source = header.get("source") or {}
    print(f"{info['path']}:")
    print(f"  format      v{info['version']}  ({info['file_bytes']} bytes)")
    print(f"  workload    {header.get('name')}  [{header.get('suite')}]")
    if source:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(source.items()))
        print(f"  source      {pairs}")
    print(f"  cores       {info['n_cores']}")
    print(f"  records     {info['records']}  per-core {info['counts']}")
    print(f"  writes      {info['writes']}  barriers {info['barriers']}")
    if info.get("min_addr") is not None:
        print(
            f"  addresses   0x{info['min_addr']:x} .. 0x{info['max_addr']:x}"
        )
    print(f"  frames      {info['frames']}  ({info['payload_bytes']} "
          f"payload bytes)")


def _trace_command(args: argparse.Namespace) -> int:
    """Run ``repro-cmp trace capture|convert|info|validate ...``.

    ``capture`` dumps a registered workload (or mix) to a trace file;
    ``convert`` ingests a CSV or mtrace-style access log
    (``--trace-format``); ``info`` prints header + trailer statistics
    (frame headers only); ``validate`` fully decodes every frame and
    cross-checks the trailer.
    """
    from ..traces import (
        CONVERTERS,
        TraceError,
        TraceReader,
        capture_workload,
    )

    usage = (
        "usage: repro-cmp trace capture <workload> <out.rtr> "
        "[--cores N] [--scale S] [--seed N] [--limit N]\n"
        "       repro-cmp trace convert <log> <out.rtr> "
        "[--trace-format csv|mtrace] [--cores N]\n"
        "       repro-cmp trace info <file.rtr>...\n"
        "       repro-cmp trace validate <file.rtr>..."
    )
    if not args.args:
        print(usage, file=sys.stderr)
        return 2
    sub, *rest = args.args
    try:
        if sub == "capture":
            if len(rest) != 2:
                print(usage, file=sys.stderr)
                return 2
            workload, out = rest
            summary = capture_workload(
                workload,
                out,
                n_cores=args.cores if args.cores is not None else 4,
                scale=args.scale if args.scale is not None else DEFAULT_SCALE,
                seed=args.seed if args.seed is not None else DEFAULT_SEED,
                limit=args.limit,
            )
            if not args.quiet:
                print(
                    f"[trace] captured {workload} -> {out} "
                    f"({summary['records']} records)"
                )
            return 0
        if sub == "convert":
            if len(rest) != 2:
                print(usage, file=sys.stderr)
                return 2
            src, out = rest
            converter = CONVERTERS[args.trace_format]
            summary = converter(src, out, n_cores=args.cores)
            if not args.quiet:
                print(
                    f"[trace] converted {src} -> {out} "
                    f"({summary['records']} records, "
                    f"{len(summary['counts'])} cores)"
                )
            return 0
        if sub in ("info", "validate"):
            if not rest:
                print(usage, file=sys.stderr)
                return 2
            for path in _spec_paths(rest):
                reader = TraceReader(path)
                if sub == "validate":
                    info = reader.validate()
                    print(f"{path}: ok ({info['records']} records, "
                          f"{info['n_cores']} cores, {info['frames']} frames)")
                else:
                    _print_trace_info(reader.info())
            return 0
    except (OSError, ValueError, TraceError) as exc:
        print(f"trace {sub}: {exc}", file=sys.stderr)
        return 1
    print(usage, file=sys.stderr)
    return 2


def _work_command(args: argparse.Namespace) -> int:
    """Run one worker: socket (``work host:port``) or batch (``--queue-dir``)."""
    plan = _load_fault_plan(args)
    plan_dict = plan.to_dict() if plan else None
    if args.args and ":" in args.args[0]:
        host, port = args.args[0].rsplit(":", 1)
        try:
            port_number = int(port)
        except ValueError:
            print(
                f"bad coordinator address {args.args[0]!r}; expected host:port",
                file=sys.stderr,
            )
            return 2
        return worker_main(
            host,
            port_number,
            worker_name=args.worker_id,
            fault_plan=plan_dict,
        )
    if args.args:
        print(
            "usage: repro-cmp work <host:port> | "
            "repro-cmp work --queue-dir DIR",
            file=sys.stderr,
        )
        return 2
    try:
        done = run_batch_worker(
            args.queue_dir,
            worker_id=args.worker_id,
            lease_timeout=args.lease_timeout,
            fault_plan=plan_dict,
        )
    except (OSError, ValueError) as exc:
        print(f"work: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"[work] simulated {done} points into {args.queue_dir}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI (entry point of the ``repro-cmp`` script)."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("experiments:", ", ".join(sorted(EXPERIMENTS) + ["table1"]))
        print("workloads:  ", ", ".join(list_workloads()))
        print("paper benchmarks:", ", ".join(PAPER_BENCHMARKS))
        return 0

    if args.command == "table1":
        print(table1().render())
        return 0

    if args.command == "cache":
        return _cache_command(args)

    if args.command == "spec":
        return _spec_command(args)

    if args.command == "run":
        return _run_spec_command(args)

    if args.command == "scenario":
        return _scenario_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "query":
        return _query_command(args)

    if args.command == "serve-results":
        return _serve_results_command(args)

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "work":
        return _work_command(args)

    runner = make_runner(args)

    if args.command == "point":
        if len(args.args) != 3:
            print(
                "usage: repro-cmp point <workload> <total_mb> <technique>",
                file=sys.stderr,
            )
            return 2
        wl, mb, tech = args.args
        try:
            total_mb = int(mb)
        except ValueError:
            print(f"bad total_mb {mb!r}; expected an integer", file=sys.stderr)
            return 2
        try:
            check_workload(wl)
            point = runner.point(wl, total_mb, tech)
        except ValueError as exc:  # a SpecError, or an unknown workload
            print(str(exc), file=sys.stderr)
            return 2
        m = runner.metrics_for(point)
        for k, v in m.as_dict().items():
            print(f"{k:22s} {v}")
        return 0

    if args.command in EXPERIMENTS:
        kwargs = {}
        benchmarks, sizes = _matrix_from_args(args)
        if args.command.startswith("fig6"):
            kwargs["total_mb"] = sizes[0] if args.sizes else 4
            kwargs["benchmarks"] = benchmarks
        else:
            kwargs["sizes"] = sizes
            kwargs["benchmarks"] = benchmarks
        _emit_table(args, run_experiment(args.command, runner, **kwargs))
        return 0

    print(f"unknown command {args.command!r}; try 'list'", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
