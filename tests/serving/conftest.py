"""Shared fixtures of the serving-layer tests.

One tiny spec is simulated once per session into a shared cache
directory; every HTTP/store/CLI test then mounts that cache read-only —
exactly the deployment shape ``repro-cmp serve-results`` serves.
"""

from __future__ import annotations

from typing import Tuple

import pytest
from serving_utils import SERVING_RUN, serving_spec

from repro.harness.query import ResultStore
from repro.harness.runner import SweepRunner
from repro.harness.spec import save_spec
from repro.serving import BackgroundServer, ResultService
from tests.conftest import seed_cache


@pytest.fixture(scope="session")
def populated_cache(tmp_path_factory, reference_runner) -> Tuple[str, str]:
    """Fill a cache with the serving spec; return (cache_dir, spec_path).

    The blobs are the session's serial reference results for the spec's
    smoke points, so nothing is simulated twice.
    """
    root = tmp_path_factory.mktemp("serving")
    cache_dir = str(root / "cache")
    spec = serving_spec()
    runner = SweepRunner(
        scale=SERVING_RUN["scale"],
        seed=SERVING_RUN["seed"],
        cache_dir=cache_dir,
        verbose=False,
    )
    seed_cache(reference_runner, runner, runner.expand_spec(spec))
    metrics = runner.run_spec(spec)
    assert metrics, "smoke spec must produce rows"
    assert runner.cache is not None
    runner.cache.write_manifest()
    spec_path = str(root / "serving_smoke.toml")
    save_spec(spec, spec_path)
    return cache_dir, spec_path


@pytest.fixture()
def store(populated_cache) -> ResultStore:
    """A read-only store mounted over the shared cache."""
    cache_dir, _ = populated_cache
    return ResultStore.open(cache_dir, serving_spec())


@pytest.fixture()
def server(store):
    """A running background HTTP server over the shared cache."""
    with BackgroundServer(ResultService(store).handle) as bg:
        yield bg
