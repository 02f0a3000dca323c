"""Every shipped spec and scenario template can build all of its streams.

Spec validation only checks that workload names resolve; a stream can
still fail when it is built for the spec's core count or scale (e.g. a
shared region too small to slice once per core).  This builds each
distinct stream a spec or template runs, at its effective context and
for every ensemble replica, and pulls one record from every core.
"""

import glob
import os

import pytest

from repro.harness.runner import SweepRunner
from repro.harness.spec import load_spec
from repro.scenarios import EnsembleSpec
from repro.scenarios.templates import build_scenario, scenario_names
from repro.workloads.registry import get_workload

SPECS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "specs")

SPEC_FILES = sorted(glob.glob(os.path.join(SPECS_DIR, "*.toml")))
CASES = [("spec", path) for path in SPEC_FILES]
CASES += [("scenario", name) for name in scenario_names()]


def case_id(case):
    kind, ref = case
    return f"{kind}:{os.path.basename(ref)}"


def distinct_streams(spec):
    """``(workload, n_cores, scale, seed)`` of each stream the spec runs."""
    ctx = spec.context()
    runner = SweepRunner(
        cache_dir=None,
        verbose=False,
        trace_root=spec.base_dir,
        **{k: ctx[k] for k in ("scale", "seed", "n_cores") if k in ctx},
    )
    ensemble = EnsembleSpec.from_spec(spec)
    streams = {}
    for replica in ensemble.expand(scale=runner.scale, runner_seed=runner.seed):
        for point in replica:
            c = runner.context_for(point)
            streams[runner.stream_key(point)] = (
                point.workload,
                int(c["n_cores"]),
                float(c["scale"]),
                int(c["seed"]),
            )
    return list(streams.values())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_stream_yields_a_record_per_core(case):
    kind, ref = case
    spec = load_spec(ref) if kind == "spec" else build_scenario(ref)
    streams = distinct_streams(spec)
    assert streams
    for workload, n_cores, scale, seed in streams:
        wl = get_workload(
            workload, n_cores=n_cores, scale=scale, seed=seed, trace_root=spec.base_dir
        )
        cores = wl.streams(n_cores)
        assert len(cores) == n_cores
        for stream in cores:
            assert next(stream, None) is not None, (workload, n_cores, scale, seed)
