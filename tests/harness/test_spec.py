"""Experiment-spec API: round-trips, validation, digest stability."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.harness.runner import SweepRunner
from repro.harness.spec import (
    ExperimentSpec,
    SpecError,
    SweepPoint,
    dumps_toml,
    grid_spec,
    load_spec,
    loads_toml,
    paper_matrix_spec,
    resolve_technique,
    save_spec,
)
from repro.sim.config import (
    PAPER_TOTAL_L2_MB,
    TechniqueConfig,
    paper_technique_order,
)
from repro.workloads.registry import PAPER_BENCHMARKS

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SPECS_DIR = os.path.join(REPO_ROOT, "specs")


def _custom_spec() -> ExperimentSpec:
    """A spec exercising every section: custom techs, run, skip, points."""
    return ExperimentSpec(
        name="kitchen_sink",
        description="everything at once",
        workloads=("uniform", "pingpong"),
        sizes_mb=(1, 4),
        techniques=("baseline", "decay24K"),
        custom_techniques={
            "decay24K": TechniqueConfig(
                name="decay",
                decay_cycles=24_000,
                counter_mode="hierarchical",
                counter_bits=3,
            )
        },
        run={"scale": 0.05, "seed": 7},
        skip=({"workload": "pingpong", "size_mb": 4},),
        points=(
            {
                "workload": "streaming",
                "size_mb": 2,
                "technique": "decay24K",
                "n_cores": 8,
            },
        ),
    )


class TestSweepPoint:
    def test_label_defaults_to_technique_label(self):
        p = SweepPoint(workload="uniform", total_mb=1)
        assert p.tech_label == "baseline"
        q = SweepPoint(
            workload="uniform",
            total_mb=1,
            technique=TechniqueConfig(name="decay", decay_cycles=64_000),
        )
        assert q.tech_label == "decay64K"

    def test_dict_roundtrip_with_overrides(self):
        p = SweepPoint(
            workload="fmm",
            total_mb=8,
            technique=TechniqueConfig(name="selective_decay", decay_cycles=9_999),
            tech_label="sel_decay_odd",
            n_cores=8,
            scale=0.25,
        )
        d = json.loads(json.dumps(p.to_dict()))
        assert SweepPoint.from_dict(d) == p

    def test_unset_overrides_omitted_from_dict(self):
        p = SweepPoint(workload="uniform", total_mb=1)
        assert set(p.to_dict()) == {"workload", "total_mb", "tech_label",
                                    "technique"}

    def test_baseline_twin(self):
        p = SweepPoint(
            workload="uniform",
            total_mb=2,
            technique=TechniqueConfig(name="decay", decay_cycles=6_400),
            tech_label="decay64K",
            n_cores=8,
        )
        twin = p.baseline_twin()
        assert twin.tech_label == "baseline"
        assert twin.technique.name == "baseline"
        assert twin.n_cores == 8  # context overrides survive
        assert twin.baseline_twin() is twin

    def test_invalid_points_rejected(self):
        with pytest.raises(SpecError):
            SweepPoint(workload="", total_mb=1)
        with pytest.raises(SpecError):
            SweepPoint(workload="uniform", total_mb=0)
        with pytest.raises(SpecError):
            SweepPoint(workload="uniform", total_mb=1, warmup=1.5)
        with pytest.raises(SpecError):
            SweepPoint.from_dict({"workload": "uniform"})
        with pytest.raises(SpecError):
            SweepPoint.from_dict(
                {"workload": "u", "total_mb": 1,
                 "technique": {"name": "baseline"}, "bogus": 1}
            )

    def test_digest_distinguishes_decay_cycles(self):
        # off-grid decay times that share a label-k must not collide
        a = SweepPoint(
            workload="uniform", total_mb=1,
            technique=TechniqueConfig(name="decay", decay_cycles=51_200),
            tech_label="decay512K",
        )
        b = SweepPoint(
            workload="uniform", total_mb=1,
            technique=TechniqueConfig(name="decay", decay_cycles=51_000),
            tech_label="decay512K",
        )
        assert a.digest() != b.digest()
        runner = SweepRunner(scale=0.1, cache_dir=None, verbose=False)
        assert runner.point_key(a) != runner.point_key(b)


class TestDigestStability:
    def _digest_in_subprocess(self, hashseed: str) -> str:
        code = (
            "from repro.harness.spec import SweepPoint\n"
            "from repro.harness.runner import SweepRunner\n"
            "from repro.sim.config import TechniqueConfig\n"
            "p = SweepPoint(workload='uniform', total_mb=2,\n"
            "               technique=TechniqueConfig(name='decay',\n"
            "                                         decay_cycles=6400),\n"
            "               tech_label='decay64K', n_cores=8)\n"
            "r = SweepRunner(scale=0.1, cache_dir=None, verbose=False)\n"
            "print(p.digest())\n"
            "print(r.point_key(p))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout

    def test_digest_and_key_survive_hashseed_changes(self):
        # the property the distributed cache relies on: every process on
        # every host computes the same key for the same point
        assert self._digest_in_subprocess("0") == self._digest_in_subprocess(
            "4242"
        )


class TestSpecRoundTrip:
    def test_json_toml_spec_equality(self):
        spec = _custom_spec()
        via_json = ExperimentSpec.from_json(spec.to_json())
        via_toml = ExperimentSpec.from_toml(spec.to_toml())
        assert via_json == spec
        assert via_toml == spec
        # and the two serialized forms describe identical dicts
        assert json.loads(spec.to_json()) == loads_toml(spec.to_toml())

    def test_expansion_survives_serialization(self):
        spec = _custom_spec()
        reloaded = ExperimentSpec.from_toml(spec.to_toml())
        a = [p.digest() for p in spec.expand(scale=0.05)]
        b = [p.digest() for p in reloaded.expand(scale=0.05)]
        assert a == b

    def test_file_roundtrip_both_formats(self, tmp_path):
        spec = _custom_spec()
        for name in ("s.toml", "s.json"):
            path = str(tmp_path / name)
            save_spec(spec, path)
            assert load_spec(path) == spec
        with pytest.raises(SpecError, match="toml or .json"):
            save_spec(spec, str(tmp_path / "s.yaml"))

    def test_toml_roundtrip_keeps_brackets_inside_strings(self):
        # a lone "[" in a quoted value is data, not an array opener
        spec = grid_spec(
            name="bracketed",
            description="warmup in [0, 1) as usual",
            workloads=["uniform"],
            sizes_mb=[1],
            techniques=["baseline"],
        )
        text = spec.to_toml()
        assert ExperimentSpec.from_dict(loads_toml(text)) == spec

    def test_toml_emitter_escapes_strings(self):
        spec = grid_spec(
            name="quoted",
            description='has "quotes" and a \\ backslash # not a comment',
            workloads=["uniform"],
            sizes_mb=[1],
            techniques=["baseline"],
        )
        assert ExperimentSpec.from_dict(loads_toml(spec.to_toml())) == spec


class TestSpecValidation:
    def test_unknown_sections_rejected(self):
        with pytest.raises(SpecError, match="unknown spec sections"):
            ExperimentSpec.from_dict({"name": "x", "axis": {}})

    def test_format_version_checked(self):
        data = _custom_spec().to_dict()
        data["format"] = 99
        with pytest.raises(SpecError, match="unsupported spec format"):
            ExperimentSpec.from_dict(data)

    def test_partial_grid_rejected(self):
        with pytest.raises(SpecError, match="all three axes"):
            grid_spec("x", ["uniform"], [], ["baseline"])

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecError, match="no grid axes and no explicit"):
            ExperimentSpec(name="hollow")

    def test_bad_sizes_rejected(self):
        with pytest.raises(SpecError, match="positive integers"):
            grid_spec("x", ["uniform"], [0], ["baseline"])
        with pytest.raises(SpecError, match="positive integers"):
            grid_spec("x", ["uniform"], [True], ["baseline"])

    def test_unknown_run_keys_rejected(self):
        with pytest.raises(SpecError, match=r"unknown \[run\] keys"):
            grid_spec(
                "x", ["uniform"], [1], ["baseline"], run={"speed": 11}
            )

    def test_bad_skip_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown skip keys"):
            grid_spec(
                "x", ["uniform"], [1], ["baseline"],
                skip=({"benchmark": "uniform"},),
            )

    def test_point_missing_fields_rejected(self):
        with pytest.raises(SpecError, match="missing 'technique'"):
            ExperimentSpec(
                name="x",
                points=({"workload": "uniform", "size_mb": 1},),
            )

    def test_point_bad_values_rejected_at_validate_time(self):
        # invalid values must fail validation, not blow up later inside
        # expand() (the CLI prints INVALID from the validate path)
        def point_spec(**entry):
            base = {"workload": "uniform", "size_mb": 1,
                    "technique": "baseline"}
            base.update(entry)
            return ExperimentSpec(name="x", points=(base,))

        with pytest.raises(SpecError, match="size_mb must be a positive"):
            point_spec(size_mb=0)
        with pytest.raises(SpecError, match="size_mb must be a positive"):
            point_spec(size_mb="big")
        with pytest.raises(SpecError, match="workload must be a name"):
            point_spec(workload="")
        with pytest.raises(SpecError, match="n_cores must be a positive"):
            point_spec(n_cores=0)
        with pytest.raises(SpecError, match="scale must be positive"):
            point_spec(scale=-1)
        with pytest.raises(SpecError, match=r"warmup must be in \[0, 1\)"):
            point_spec(warmup=1.0)

    def test_bad_technique_table_rejected(self):
        with pytest.raises(SpecError, match="techniques.broken"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "axes": {
                        "workloads": ["uniform"],
                        "sizes_mb": [1],
                        "techniques": ["broken"],
                    },
                    "techniques": {"broken": {"name": "warp-drive"}},
                }
            )

    def test_strict_checks_workloads_and_labels(self):
        spec = grid_spec("x", ["no_such_workload"], [1], ["baseline"])
        with pytest.raises(SpecError, match="unknown workload"):
            spec.validate(strict=True)
        spec = grid_spec("x", ["uniform"], [1], ["decay9000K"])
        with pytest.raises(SpecError, match="unknown technique label"):
            spec.validate(strict=True)

    def test_invalid_toml_and_json_rejected(self):
        with pytest.raises(SpecError, match="invalid"):
            ExperimentSpec.from_toml("name = [unterminated")
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentSpec.from_json("{not json")


class TestExpansion:
    def test_grid_order_and_skip(self):
        spec = _custom_spec()
        points = spec.expand(scale=0.05)
        triples = [p.triple for p in points]
        # sizes outermost, workloads, techniques; pingpong@4MB skipped;
        # the explicit streaming point appended last
        assert triples == [
            ("uniform", 1, "baseline"),
            ("uniform", 1, "decay24K"),
            ("pingpong", 1, "baseline"),
            ("pingpong", 1, "decay24K"),
            ("uniform", 4, "baseline"),
            ("uniform", 4, "decay24K"),
            ("streaming", 2, "decay24K"),
        ]
        assert points[-1].n_cores == 8

    def test_custom_technique_cycles_are_literal(self):
        # spec-local technique tables are never scale-multiplied
        spec = _custom_spec()
        points = spec.expand(scale=0.05)
        decay = [p for p in points if p.tech_label == "decay24K"]
        assert all(p.technique.decay_cycles == 24_000 for p in decay)
        assert all(
            p.technique.counter_mode == "hierarchical" for p in decay
        )

    def test_paper_labels_are_scaled(self):
        spec = grid_spec("x", ["uniform"], [1], ["decay512K"])
        (p,) = spec.expand(scale=0.1)
        assert p.technique.decay_cycles == 51_200
        assert p.tech_label == "decay512K"

    def test_resolve_technique_precedence(self):
        custom = {"decay512K": TechniqueConfig(name="decay", decay_cycles=7)}
        assert resolve_technique("decay512K", 1.0, custom).decay_cycles == 7
        assert resolve_technique("decay512K", 1.0).decay_cycles == 512_000

    def test_context_merging(self):
        spec = _custom_spec()
        assert spec.context() == {"scale": 0.05, "seed": 7}
        # explicit values beat the spec, None defers to it
        assert spec.context(scale=0.2, seed=None) == {"scale": 0.2, "seed": 7}


class TestShippedSpecs:
    def test_paper_matrix_file_matches_programmatic(self):
        on_disk = load_spec(os.path.join(SPECS_DIR, "paper_matrix.toml"))
        assert on_disk == paper_matrix_spec()

    def test_paper_matrix_expands_to_the_192_point_matrix(self):
        spec = load_spec(os.path.join(SPECS_DIR, "paper_matrix.toml"))
        runner = SweepRunner(scale=0.1, cache_dir=None, verbose=False)
        points = runner.expand_spec(spec)
        assert len(points) == 192
        legacy = runner.points_for(
            PAPER_BENCHMARKS,
            PAPER_TOTAL_L2_MB,
            ["baseline", *paper_technique_order()],
        )
        assert points == legacy

    def test_shipped_specs_validate_strictly(self):
        # specs/ also ships trace fixtures (specs/traces/); only the
        # spec files themselves are loadable
        names = [
            n
            for n in sorted(os.listdir(SPECS_DIR))
            if n.endswith((".toml", ".json"))
        ]
        assert names
        for name in names:
            spec = load_spec(os.path.join(SPECS_DIR, name))
            spec.validate(strict=True)
            assert spec.expand(scale=0.1)


class TestRunnerIntegration:
    def test_run_spec_matches_sweep(self, reference_runner):
        runner = reference_runner
        spec = grid_spec(
            "tiny", ["uniform"], [1], ["baseline", "protocol"]
        )
        by_spec = runner.run_spec(spec)
        by_grid = runner.sweep(
            benchmarks=["uniform"], sizes=[1],
            techniques=["baseline", "protocol"],
        )
        assert by_spec == by_grid

    def test_expand_spec_uses_runner_scale(self):
        runner = SweepRunner(scale=0.05, cache_dir=None, verbose=False)
        spec = grid_spec("x", ["uniform"], [1], ["decay64K"])
        (p,) = runner.expand_spec(spec)
        assert p.technique == runner.technique_configs()["decay64K"]

    def test_point_with_override_runs(self, tmp_path):
        # an 8-core off-grid point simulates and caches under its own key
        runner = SweepRunner(
            scale=0.04, cache_dir=str(tmp_path / "cache"), verbose=False
        )
        point = replace(runner.point("uniform", 1, "protocol"), n_cores=2)
        res, energy = runner.run_point(point)
        assert len(res.cores) == 2
        assert runner.lookup(point) is not None
        assert runner.lookup(runner.point("uniform", 1, "protocol")) is None


class TestNonBareTechniqueLabels:
    """Labels like ``decay@16K`` must survive the TOML round trip.

    The emitter used to write them unquoted in ``[techniques.<label>]``
    headers, producing invalid TOML that tomllib rejected on replay
    (exactly what ``examples/decay_tuning.py --save`` generates).
    """

    @staticmethod
    def _spec_with_odd_labels() -> ExperimentSpec:
        return ExperimentSpec(
            name="odd_labels",
            workloads=("uniform",),
            sizes_mb=(1,),
            techniques=("baseline", "decay@16K", "sel decay.v2"),
            custom_techniques={
                "decay@16K": TechniqueConfig(name="decay", decay_cycles=16_000),
                "sel decay.v2": TechniqueConfig(
                    name="selective_decay", decay_cycles=64_000
                ),
            },
        )

    def test_toml_roundtrip_quotes_headers(self, tmp_path):
        spec = self._spec_with_odd_labels()
        path = str(tmp_path / "odd.toml")
        save_spec(spec, path)
        text = open(path).read()
        assert '[techniques."decay@16K"]' in text
        assert '[techniques."sel decay.v2"]' in text
        assert load_spec(path) == spec
