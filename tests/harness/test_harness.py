"""Harness: metrics, sweep runner caching, figure rendering, CLI."""

import os
import socket
import subprocess
import sys

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.executor import ParallelSweepRunner
from repro.harness.figures import FigureTable, run_experiment, table1
from repro.harness.metrics import PointMetrics
from repro.harness.runner import SweepRunner
from tests.conftest import seed_cache

SCALE = 0.04


@pytest.fixture
def runner(tmp_path):
    return SweepRunner(scale=SCALE, cache_dir=str(tmp_path / "cache"),
                       verbose=False)


class TestRunnerCaching:
    def test_cache_roundtrip(self, runner, tmp_path):
        point = runner.point("uniform", 1, "baseline")
        r1, e1 = runner.run_point(point)
        assert runner.cache.stats().entries == 1
        # a fresh runner must reload the same point from disk
        fresh = SweepRunner(scale=SCALE, cache_dir=str(tmp_path / "cache"),
                            verbose=False)
        r2, e2 = fresh.run_point(point)
        assert r2.total_cycles == r1.total_cycles
        assert e2.total == pytest.approx(e1.total)

    def test_memo_serves_repeat_lookups(self, reference_runner):
        runner = reference_runner
        point = runner.point("uniform", 1, "baseline")
        r1, _ = runner.run_point(point)
        r2, _ = runner.run_point(point)
        assert r2 is r1  # in-process memo, no reload

    def test_cache_key_separates_techniques(self, runner, tmp_path):
        runner.run_point(runner.point("uniform", 1, "baseline"))
        runner.run_point(runner.point("uniform", 1, "protocol"))
        assert runner.cache.stats().entries == 2

    def test_cache_entries_are_sharded_under_version_dir(self, runner,
                                                         tmp_path):
        point = runner.point("uniform", 1, "baseline")
        runner.run_point(point)
        from repro.harness.runner import CACHE_VERSION

        assert os.listdir(tmp_path / "cache") == [f"v{CACHE_VERSION}"]
        key = runner.point_key(point)
        assert os.path.exists(runner.cache.path_for(key))

    def test_technique_configs_cover_paper(self, runner):
        techs = runner.technique_configs()
        assert len(techs) == 8  # baseline + 7
        assert techs["decay64K"].decay_cycles == int(64_000 * SCALE)

    def test_technique_configs_memoized(self, runner):
        # point_key sits on the cache hot path; the table must not be
        # rebuilt (8 TechniqueConfig constructions) per lookup
        assert runner.technique_configs() is runner.technique_configs()

    def test_metrics_for(self, reference_runner):
        runner = reference_runner
        m = runner.metrics_for(runner.point("uniform", 1, "protocol"))
        assert isinstance(m, PointMetrics)
        assert m.ipc_loss == pytest.approx(0.0, abs=1e-9)
        assert 0 <= m.occupancy <= 1

    def test_averaged(self, reference_runner):
        runner = reference_runner
        pts = [runner.metrics_for(runner.point("uniform", 1, "protocol")),
               runner.metrics_for(runner.point("pingpong", 1, "protocol"))]
        avg = runner.averaged(pts, "occupancy")
        assert (1, "protocol") in avg
        expected = (pts[0].occupancy + pts[1].occupancy) / 2
        assert avg[(1, "protocol")] == pytest.approx(expected)

    def test_point_override_separates_cache_keys(self, runner):
        # an override equal to the runner default shares the cache key;
        # a different override gets its own entry
        from dataclasses import replace

        point = runner.point("uniform", 1, "baseline")
        same = replace(point, n_cores=runner.n_cores)
        other = replace(point, n_cores=8)
        assert runner.point_key(same) == runner.point_key(point)
        assert runner.point_key(other) != runner.point_key(point)


class TestRunnerRejectsTriples:
    """The deprecated (workload, total_mb, technique) shims are gone."""

    def test_run_point_requires_a_sweep_point(self, runner):
        with pytest.raises(TypeError):
            runner.run_point("uniform", 1, "protocol")

    def test_point_key_requires_a_sweep_point(self, runner):
        with pytest.raises(TypeError):
            runner.point_key("uniform", 1, "protocol")


class TestFigureTable:
    def test_render_contains_cells(self):
        t = FigureTable("figX", "demo", ["a", "b"])
        t.add_row("r1", ["1%", "2%"])
        out = t.render()
        assert "figX" in out and "r1" in out and "2%" in out

    def test_row_length_checked(self):
        t = FigureTable("figX", "demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("r1", ["only-one"])

    def test_table1_static(self):
        out = table1().render()
        assert "invalidate the upper level" in out
        assert "pending write" in out

    @pytest.mark.slow
    def test_fig_on_reduced_matrix(self, tmp_path, reference_runner):
        # run as `repro-cmp fig3a --jobs 2` runs it; the points other
        # tests simulate too come from the session's serial reference,
        # the other five techniques are simulated here
        runner = ParallelSweepRunner(scale=SCALE, jobs=2, verbose=False,
                                     cache_dir=str(tmp_path / "cache"))
        seed_cache(reference_runner, runner, runner.points_for(
            ["uniform", "pingpong"], [1], ["protocol", "decay64K"]))
        t = run_experiment(
            "fig3a", runner,
            sizes=[1], benchmarks=["uniform", "pingpong"])
        out = t.render()
        assert "protocol" in out and "decay64K" in out and "1MB" in out

    def test_unknown_experiment(self, runner):
        with pytest.raises(ValueError):
            run_experiment("fig9z", runner)


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "water_ns" in out

    def test_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "Turn off" in capsys.readouterr().out

    def test_point(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["point", "uniform", "1", "protocol",
                       "--scale", str(SCALE), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "occupancy" in out

    def test_point_usage_error(self, capsys):
        assert cli_main(["point", "uniform"]) == 2

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["point", "uniform", "x", "protocol"], 2),
            (["fig3a", "--sizes", "a"], 2),
            (["work", "127.0.0.1:notaport"], 2),
            (["work", "--queue-dir", "{tmp}/no_queue"], 1),
            (["serve-results", "--port", "{port}"], 1),
            (["point", "nosuch", "1", "protocol"], 2),
            (["fig6a", "--benchmarks", "nosuch"], 2),
            (["cache", "merge", "{tmp}/nonexistent"], 1),
        ],
        ids=["point_mb", "fig_sizes", "work_port", "no_task_file", "busy_port",
             "point_workload", "fig_benchmarks", "merge_missing_dir"],
    )
    def test_bad_input_prints_one_error_line(self, tmp_path, argv, code):
        # what a user sees: the CLI as a process, exit code and stderr
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src), env.get("PYTHONPATH", "")]
        )
        with socket.create_server(("127.0.0.1", 0)) as busy:
            argv = [
                arg.format(tmp=tmp_path, port=busy.getsockname()[1])
                for arg in argv
            ]
            proc = subprocess.run(
                [sys.executable, "-m", "repro.harness.cli", *argv],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize(
        "payload",
        ['{"format": 1, "specs": [["uniform", 1, "protocol"]]}', "not json"],
        ids=["format_1", "not_json"],
    )
    def test_work_reports_a_bad_task_file(self, tmp_path, capsys, payload):
        (tmp_path / "tasks.json").write_text(payload)
        assert cli_main(["work", "--queue-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
