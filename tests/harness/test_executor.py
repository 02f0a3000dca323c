"""Parallel sweep executor: planning, equality with the serial runner."""

import itertools
import os

import pytest

from repro.harness.executor import (
    ParallelSweepRunner,
    resolve_jobs,
)
from repro.harness.runner import SweepRunner
from repro.harness.spec import load_spec
from repro.scenarios import EnsembleSpec

PAPER_MATRIX = os.path.join(
    os.path.dirname(__file__), "..", "..", "specs", "paper_matrix.toml"
)

SCALE = 0.04
#: 2 workloads x 1 size x 2 techniques (+2 baseline twins) = 6 simulations
MATRIX = dict(
    benchmarks=["uniform", "pingpong"],
    sizes=[1],
    techniques=["protocol", "decay64K"],
)


class TestPlanning:
    def test_baselines_scheduled_first(self):
        runner = ParallelSweepRunner(scale=SCALE, cache_dir=None, jobs=1)
        plan = runner.plan(
            ["uniform", "pingpong"], [1, 4], ["protocol", "decay64K"]
        )
        n_base = 4  # 2 workloads x 2 sizes
        assert all(p.tech_label == "baseline" for p in plan[:n_base])
        assert all(p.tech_label != "baseline" for p in plan[n_base:])
        assert len(plan) == n_base + 8

    def test_plan_deduplicates(self):
        runner = ParallelSweepRunner(scale=SCALE, cache_dir=None, jobs=1)
        plan = runner.plan(["uniform"], [1], ["baseline", "protocol", "protocol"])
        assert plan == [
            runner.point("uniform", 1, "baseline"),
            runner.point("uniform", 1, "protocol"),
        ]

    def test_plan_points_covers_baseline_twins(self):
        # a point-list plan must schedule the baseline twin of every
        # point even when the spec never listed baseline
        runner = ParallelSweepRunner(scale=SCALE, cache_dir=None, jobs=1)
        point = runner.point("uniform", 2, "decay64K")
        plan = runner.plan_points([point])
        assert plan == [point.baseline_twin(), point]

    def test_paper_matrix_plan_groups_streams_within_tiers(self):
        runner = ParallelSweepRunner(scale=SCALE, cache_dir=None, jobs=1)
        points = runner.expand_spec(load_spec(PAPER_MATRIX))
        plan = runner.plan_points(points)
        assert sorted(map(runner.point_key, plan)) == sorted(
            map(runner.point_key, points)
        )
        n_base = 6 * 4  # workloads x sizes
        tiers = plan[:n_base], plan[n_base:]
        assert all(p.tech_label == "baseline" for p in tiers[0])
        assert all(p.tech_label != "baseline" for p in tiers[1])
        builds = 0
        for tier in tiers:
            runs = [k for k, _ in itertools.groupby(map(runner.stream_key, tier))]
            assert len(runs) == len(set(runs)) == 6
            builds += len(runs)
        # a worker pulling the plan in order builds at most 12 streams
        assert builds == 12

    def test_plan_keeps_ensemble_replica_order(self):
        """Replicas never interleave: each tier is replica 0's, then 1's..."""
        runner = ParallelSweepRunner(scale=SCALE, cache_dir=None, jobs=1)
        replicas = EnsembleSpec(spec=load_spec(PAPER_MATRIX), replicas=3).expand(
            scale=SCALE
        )
        plan = runner.plan_points([p for replica in replicas for p in replica])
        alone = [runner.plan_points(replica) for replica in replicas]
        n_base = 6 * 4
        assert plan == [p for one in alone for p in one[:n_base]] + [
            p for one in alone for p in one[n_base:]
        ]

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)
        assert resolve_jobs(-2) == max(1, os.cpu_count() or 1)


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
def parallel_run(tmp_path_factory):
    """The same MATRIX swept on a 2-worker pool (module-shared)."""
    runner = ParallelSweepRunner(
        scale=SCALE,
        cache_dir=str(tmp_path_factory.mktemp("parallel") / "cache"),
        verbose=False,
        jobs=2,
    )
    return runner, runner.sweep(**MATRIX)


class TestSerialParallelEquality:
    def test_pool_matches_serial(self, serial_run, parallel_run):
        assert parallel_run[1] == serial_run[1]

    def test_inline_path_matches_serial(self, serial_run):
        # jobs=1 takes the no-pool fast path
        runner = ParallelSweepRunner(
            scale=SCALE, cache_dir=None, jobs=1, verbose=False
        )
        metrics = runner.sweep(
            benchmarks=["uniform"], sizes=[1], techniques=["protocol"]
        )
        expected = [
            m for m in serial_run[1]
            if m.workload == "uniform" and m.technique == "protocol"
        ]
        assert metrics == expected

    def test_cache_files_byte_identical_to_serial(self, serial_run,
                                                  parallel_run):
        s_entries = dict(serial_run[0].cache.iter_entries())
        p_entries = dict(parallel_run[0].cache.iter_entries())
        assert set(s_entries) == set(p_entries)
        assert len(s_entries) == 6
        for key, s_path in s_entries.items():
            with open(s_path, "rb") as fh:
                s_bytes = fh.read()
            with open(p_entries[key], "rb") as fh:
                p_bytes = fh.read()
            assert s_bytes == p_bytes, f"cache blob differs for {key}"


class TestPrefetch:
    def test_prefetch_fully_cached_is_free(self, parallel_run):
        # a fresh runner over an already-populated cache simulates nothing
        fresh = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=parallel_run[0].cache_dir,
            verbose=False,
            jobs=2,
        )
        assert fresh.prefetch(**MATRIX) == 0
        # and the memo now serves metrics without touching the pool
        assert fresh.sweep(**MATRIX) == parallel_run[1]

    def test_prefetch_counts_pending_points(self, parallel_run):
        runner = parallel_run[0]
        assert runner.prefetch(**MATRIX) == 0  # memoized
        # one new technique point over the same baselines: exactly 2 sims
        # would be pending (pingpong+uniform x sel_decay64K)
        plan = runner.plan(
            MATRIX["benchmarks"], MATRIX["sizes"], ["sel_decay64K"]
        )
        pending = [p for p in plan if runner.lookup(p) is None]
        assert len(pending) == 2

    def test_corrupt_cache_entry_resimulated(self, serial_run):
        runner, _ = serial_run
        point = runner.point("uniform", 1, "protocol")
        res, _ = runner.run_point(point)
        key = runner.point_key(point)
        with open(runner.cache.path_for(key), "w") as fh:
            fh.write('{"result": {"trunc')
        fresh = SweepRunner(
            scale=SCALE, cache_dir=runner.cache_dir, verbose=False
        )
        res2, _ = fresh.run_point(point)
        assert res2.total_cycles == res.total_cycles
        # and the repaired entry is back on disk
        assert fresh.cache.get(key) is not None
