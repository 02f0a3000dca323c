"""CLI surface of the scenario subsystem: scenario, spec diff, --replicas."""

import os

import pytest

from repro.harness.cli import main
from repro.harness.runner import SweepRunner
from repro.harness.spec import load_spec, save_spec
from repro.scenarios.templates import build_scenario
from tests.conftest import seed_cache

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SPECS_DIR = os.path.join(REPO_ROOT, "specs")
SMOKE = os.path.join(SPECS_DIR, "smoke.toml")


class TestScenarioCommand:
    def test_list_names_every_family(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("multiprogram_mix", "mix_smoke", "sizing_sensitivity",
                     "core_scaling"):
            assert name in out

    def test_expand_prints_points_and_replicas(self, capsys):
        assert main(["scenario", "expand", "mix_smoke"]) == 0
        out = capsys.readouterr().out
        assert "3 points" in out
        assert "2 replica(s)" in out
        assert "mix:water_ns+mpeg2dec" in out

    def test_expand_is_sorted_by_digest(self, capsys):
        assert main(["scenario", "expand", "core_scaling"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if "digest=" in line
        ]
        digests = [line.rsplit("digest=", 1)[1] for line in lines]
        assert digests == sorted(digests)

    def test_unknown_scenario_fails(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_subcommand_usage(self, capsys):
        assert main(["scenario", "bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_save_freezes_a_spec_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "frozen.toml")
        assert main(["scenario", "save", "core_scaling", out_path]) == 0
        frozen = load_spec(out_path)
        assert frozen.to_dict() == build_scenario("core_scaling").to_dict()

    def test_save_bad_path_is_a_clean_error(self, tmp_path, capsys):
        bad = str(tmp_path / "frozen.txt")
        assert main(["scenario", "save", "core_scaling", bad]) == 2
        assert "spec files must end" in capsys.readouterr().err

    def test_expand_seeds_honor_the_spec_run_seed(self, capsys):
        """scenario expand previews the same seeds scenario run uses."""
        from repro.harness.spec import grid_spec
        from repro.scenarios.templates import register_scenario

        class SeededTemplate:
            name = "seeded_family_test"
            description = "test-only family with a pinned run seed"

            def build(self, **params):
                return grid_spec(
                    name=self.name,
                    workloads=["uniform"],
                    sizes_mb=[1],
                    techniques=["baseline"],
                    run={"seed": 7},
                    ensemble={"replicas": 2},
                )

        register_scenario(SeededTemplate())
        assert main(["scenario", "expand", "seeded_family_test"]) == 0
        out = capsys.readouterr().out
        assert "seeds [7, 8]" in out
        # an explicit --seed flag still beats the spec's [run] seed
        assert main(["scenario", "expand", "seeded_family_test",
                     "--seed", "3"]) == 0
        assert "seeds [3, 4]" in capsys.readouterr().out

    @pytest.mark.slow
    def test_run_with_replicas_emits_ci_table(
        self, tmp_path, capsys, reference_runner
    ):
        # replica 0 runs at the spec's own seed: its blobs are the
        # session's serial reference; replica 1 is simulated here
        warm = SweepRunner(
            scale=0.04, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        seed_cache(reference_runner, warm, warm.expand_spec(load_spec(SMOKE)))
        csv_path = str(tmp_path / "ens.csv")
        code = main([
            "run", SMOKE, "--replicas", "2", "--quiet",
            "--cache-dir", str(tmp_path / "cache"), "--csv", csv_path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 replica(s)" in out
        assert "±" in out
        with open(csv_path) as fh:
            text = fh.read()
        assert "±" in text and "protocol" in text


class TestSpecExpandOrdering:
    def test_expand_output_sorted_by_digest(self, capsys):
        matrix = os.path.join(SPECS_DIR, "paper_matrix.toml")
        assert main(["spec", "expand", matrix]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if "digest=" in line
        ]
        assert len(lines) == 192
        digests = [line.rsplit("digest=", 1)[1] for line in lines]
        assert digests == sorted(digests)


class TestSpecDiff:
    def test_identical_specs_exit_zero(self, capsys):
        assert main(["spec", "diff", SMOKE, SMOKE]) == 0
        assert "identical" in capsys.readouterr().out

    def test_added_and_removed_points(self, tmp_path, capsys):
        spec = load_spec(SMOKE)
        bigger = type(spec)(
            name=spec.name,
            workloads=(*spec.workloads, "pingpong"),
            sizes_mb=spec.sizes_mb,
            techniques=spec.techniques,
            run=dict(spec.run),
        )
        other = str(tmp_path / "bigger.toml")
        save_spec(bigger, other)
        assert main(["spec", "diff", SMOKE, other]) == 1
        out = capsys.readouterr().out
        assert "+ pingpong" in out
        assert "differ:" in out and "2 added" in out

    def test_changed_points_detected(self, tmp_path, capsys):
        """Same triples, different resolved hardware: reported as changed."""
        from repro.harness.spec import grid_spec

        def decay_spec(scale):
            return grid_spec(
                name="retune",
                workloads=["uniform"],
                sizes_mb=[1],
                techniques=["decay64K"],
                run={"scale": scale},
            )

        a = str(tmp_path / "a.toml")
        b = str(tmp_path / "b.toml")
        save_spec(decay_spec(0.04), a)
        save_spec(decay_spec(0.5), b)
        assert main(["spec", "diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "~ uniform 1MB decay64K" in out
        assert "1 changed" in out

    def test_added_point_sharing_a_triple_still_detected(self, tmp_path,
                                                         capsys):
        """An extra B point whose triple also exists in A must not hide."""
        from repro.harness.spec import ExperimentSpec

        base_point = {"workload": "uniform", "size_mb": 1,
                      "technique": "baseline"}
        a_spec = ExperimentSpec(name="a", points=(base_point,))
        b_spec = ExperimentSpec(
            name="a", points=(base_point, {**base_point, "n_cores": 8})
        )
        a, b = str(tmp_path / "a.toml"), str(tmp_path / "b.toml")
        save_spec(a_spec, a)
        save_spec(b_spec, b)
        assert main(["spec", "diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "1 added" in out
        assert main(["spec", "diff", b, a]) == 1
        assert "1 removed" in capsys.readouterr().out

    def test_surplus_same_triple_points_counted(self, tmp_path, capsys):
        """A lost 1 digest of a triple, B gained 2: 1 changed + 1 added."""
        from repro.harness.spec import ExperimentSpec

        def pt(**over):
            return {"workload": "uniform", "size_mb": 1,
                    "technique": "decay64K", **over}

        a_spec = ExperimentSpec(name="s", points=(pt(n_cores=2),))
        b_spec = ExperimentSpec(name="s", points=(pt(n_cores=4),
                                                  pt(n_cores=8)))
        a, b = str(tmp_path / "a.toml"), str(tmp_path / "b.toml")
        save_spec(a_spec, a)
        save_spec(b_spec, b)
        assert main(["spec", "diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "1 added" in out and "1 changed" in out
        assert out.count("uniform 1MB decay64K") == 2  # one ~, one +

    def test_usage_errors(self, capsys):
        assert main(["spec", "diff", SMOKE]) == 2
        assert main(["spec", "diff", SMOKE, "/nonexistent.toml"]) == 2


class TestPinnedBaseSeed:
    def test_one_replica_ensemble_still_pins_base_seed(self, tmp_path,
                                                       capsys):
        """replicas=1 + base_seed must simulate the pinned seed."""
        from repro.harness.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="pinned",
            points=({"workload": "uniform", "size_mb": 1,
                     "technique": "baseline"},),
            run={"scale": 0.04},
            ensemble={"base_seed": 100},
        )
        path = str(tmp_path / "pinned.toml")
        save_spec(spec, path)
        assert main(["run", path, "--quiet", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "seeds 100..100" in out


class TestReplicasFlagValidation:
    def test_zero_replicas_is_a_clean_usage_error(self, capsys):
        assert main(["run", SMOKE, "--replicas", "0", "--no-cache"]) == 2
        assert "replicas" in capsys.readouterr().err

    def test_scenario_expand_rejects_bad_replicas(self, capsys):
        assert main(["scenario", "expand", "mix_smoke",
                     "--replicas", "-1"]) == 2
        assert "replicas" in capsys.readouterr().err


class TestCoresColumn:
    def test_core_scaling_rows_are_distinguishable(self):
        """n_cores reaches the metric rows and the rendered tables."""
        from repro.harness.cli import _metrics_table
        from repro.harness.figures import ensemble_table
        from repro.harness.metrics import PointMetrics
        from repro.scenarios.stats import aggregate_metrics

        def pm(n_cores):
            return PointMetrics(
                workload="uniform", total_mb=4, technique="protocol",
                occupancy=0.9, miss_rate=0.1, bandwidth_increase=0.0,
                amat_increase=0.0, ipc_loss=0.0, energy_reduction=0.1,
                l2_leakage_share=0.5, n_cores=n_cores,
            )

        metrics = [pm(2), pm(8)]
        table = _metrics_table("cs", metrics)
        assert "cores" in table.columns
        idx = table.columns.index("cores")
        assert [table.cells[r][idx] for r in table.rows] == ["2", "8"]

        rows = aggregate_metrics([metrics, metrics])
        assert [r.n_cores for r in rows] == [2, 8]
        ens = ensemble_table("cs", rows)
        assert "cores" in ens.columns

    def test_cores_column_absent_for_plain_specs(self):
        from repro.harness.cli import _metrics_table
        from repro.harness.metrics import PointMetrics

        m = PointMetrics(
            workload="uniform", total_mb=4, technique="protocol",
            occupancy=0.9, miss_rate=0.1, bandwidth_increase=0.0,
            amat_increase=0.0, ipc_loss=0.0, energy_reduction=0.1,
            l2_leakage_share=0.5,
        )
        assert "cores" not in _metrics_table("plain", [m]).columns
