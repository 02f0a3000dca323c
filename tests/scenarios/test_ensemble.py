"""Ensemble engine: expansion semantics and backend determinism.

The satellite contract: the same :class:`EnsembleSpec` + seeds through
the serial runner and through :class:`LocalBackend` workers yields
byte-identical per-replica cache blobs and identical aggregated CI
tables.
"""

import pytest

from repro.harness.executor import ParallelSweepRunner
from repro.harness.figures import ensemble_table
from repro.harness.runner import SweepRunner
from repro.harness.spec import SpecError, grid_spec
from repro.scenarios.ensemble import EnsembleSpec, run_ensemble
from tests.conftest import seed_cache

SCALE = 0.04

#: 2 points x 2 replicas (+2 baseline twins per replica seed) = 8 sims
ENSEMBLE_SPEC = grid_spec(
    name="ens_matrix",
    workloads=["uniform", "pingpong"],
    sizes_mb=[1],
    techniques=["protocol"],
    ensemble={"replicas": 2},
)


class TestExpansion:
    def test_replica_shape_and_seeds(self):
        ens = EnsembleSpec(spec=ENSEMBLE_SPEC, replicas=3, seed_stride=10)
        replicas = ens.expand(scale=SCALE, runner_seed=5)
        assert len(replicas) == 3
        assert [len(r) for r in replicas] == [2, 2, 2]
        assert [r[0].seed for r in replicas] == [5, 15, 25]
        # replicas differ only in seed
        for r in replicas:
            assert [p.triple for p in r] == [p.triple for p in replicas[0]]

    def test_base_seed_pins_the_ensemble(self):
        ens = EnsembleSpec(spec=ENSEMBLE_SPEC, replicas=2, base_seed=100)
        assert ens.replica_seeds(runner_seed=1) == [100, 101]

    def test_point_with_own_seed_strides_from_it(self):
        spec = grid_spec(
            name="seeded",
            workloads=(),
            sizes_mb=(),
            techniques=(),
            points=(
                {"workload": "uniform", "size_mb": 1,
                 "technique": "baseline", "seed": 42},
            ),
        )
        ens = EnsembleSpec(spec=spec, replicas=3)
        replicas = ens.expand(runner_seed=1)
        assert [r[0].seed for r in replicas] == [42, 43, 44]

    def test_from_spec_reads_table_and_cli_override_wins(self):
        ens = EnsembleSpec.from_spec(ENSEMBLE_SPEC)
        assert ens.replicas == 2
        assert EnsembleSpec.from_spec(ENSEMBLE_SPEC, replicas=5).replicas == 5

    def test_invalid_policies_rejected(self):
        with pytest.raises(SpecError):
            EnsembleSpec(spec=ENSEMBLE_SPEC, replicas=0)
        with pytest.raises(SpecError):
            EnsembleSpec(spec=ENSEMBLE_SPEC, seed_stride=0)


class TestDeterminism:
    @pytest.mark.slow
    def test_serial_and_local_backend_byte_identical(
        self, tmp_path, reference_runner
    ):
        """Same ensemble through serial and pool workers: same bytes."""
        serial = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "serial"), verbose=False
        )
        ens = EnsembleSpec.from_spec(ENSEMBLE_SPEC)
        # replica 0 runs at the runner's own seed: its serial blobs are
        # the session's serial reference; replica 1 is simulated here
        replica0 = ens.expand(scale=SCALE, runner_seed=serial.seed)[0]
        seed_cache(reference_runner, serial, replica0)
        serial_result = run_ensemble(serial, ens)

        parallel = ParallelSweepRunner(
            scale=SCALE,
            cache_dir=str(tmp_path / "pool"),
            verbose=False,
            backend="local",
            jobs=2,
        )
        pool_result = run_ensemble(parallel, ens)

        # identical replica expansion...
        assert pool_result.replicas == serial_result.replicas
        # ...byte-identical per-replica cache blobs...
        compared = 0
        for replica in serial_result.replicas:
            for point in replica:
                for p in (point, point.baseline_twin()):
                    key = serial.point_key(p)
                    assert parallel.point_key(p) == key
                    ours = serial.cache.read_bytes(key)
                    theirs = parallel.cache.read_bytes(key)
                    assert ours is not None
                    assert ours == theirs, p.describe()
                    compared += 1
        assert compared >= 8
        # ...and identical aggregated CI tables
        assert pool_result.metrics == serial_result.metrics
        assert pool_result.aggregated == serial_result.aggregated
        serial_tbl = ensemble_table("ens", serial_result.aggregated)
        pool_tbl = ensemble_table("ens", pool_result.aggregated)
        assert pool_tbl.render() == serial_tbl.render()
        assert pool_tbl.to_csv() == serial_tbl.to_csv()

    def test_single_replica_matches_single_run(self, reference_runner):
        """A 1-replica ensemble is exactly the plain spec run."""
        runner = reference_runner
        spec = grid_spec(
            name="single",
            workloads=["uniform"],
            sizes_mb=[1],
            techniques=["protocol"],
        )
        result = run_ensemble(runner, EnsembleSpec(spec=spec, replicas=1))
        direct = runner.run_spec(spec)
        assert result.metrics == [direct]
        row = result.aggregated[0]
        assert row.n == 1
        m = direct[0]
        assert row.stats["energy_reduction"].mean == m.energy_reduction
        assert row.stats["energy_reduction"].ci95 == 0.0


class TestProvenance:
    def test_simulated_entries_record_provenance(self, tmp_path):
        runner = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        point = runner.point("uniform", 1, "baseline")
        runner.run_point(point)
        key = runner.point_key(point)
        prov = runner.cache.get_provenance(key)
        assert prov is not None
        assert prov["backend"] == "serial"
        assert prov["worker"] == runner.worker_id
        assert "installed_at" in prov and "host" in prov
        # the manifest folds the sidecar into its row
        runner.cache.write_manifest()
        manifest = runner.cache.read_manifest()
        assert manifest["entries"][key]["provenance"] == prov

    def test_provenance_never_touches_the_blob(self, tmp_path):
        """Result bytes are identical with and without a cache sidecar."""
        with_cache = SweepRunner(
            scale=SCALE, cache_dir=str(tmp_path / "a"), verbose=False
        )
        memo_only = SweepRunner(scale=SCALE, cache_dir=None, verbose=False)
        point = with_cache.point("uniform", 1, "baseline")
        res_a = with_cache.run_point(point)
        res_b = memo_only.run_point(point)
        assert res_a[0].to_dict() == res_b[0].to_dict()
