"""Shared fixtures and factories for the test-suite."""

from __future__ import annotations

import pytest

from repro.sim.config import (
    BASELINE,
    DECAY,
    PROTOCOL,
    SELECTIVE_DECAY,
    CMPConfig,
    CoreConfig,
    L1Config,
    L2Config,
    MemoryConfig,
    TechniqueConfig,
)


def tiny_config(
    technique: str = BASELINE,
    decay_cycles: int = 2_000,
    n_cores: int = 4,
    l2_kb: int = 16,
    l1_kb: int = 1,
    counter_mode: str = "ideal",
    **overrides,
) -> CMPConfig:
    """A miniature CMP for protocol-level tests.

    Small caches keep tests fast while exercising real replacement,
    inclusion and coherence behaviour.
    """
    return CMPConfig(
        n_cores=n_cores,
        core=CoreConfig(
            write_buffer_drain_cycles=2,
            l1_mshr_entries=4,
            write_buffer_entries=4,
        ),
        l1=L1Config(size_bytes=l1_kb * 1024, assoc=2, line_bytes=64),
        l2=L2Config(size_bytes=l2_kb * 1024, assoc=4, line_bytes=64,
                    hit_latency=8),
        memory=MemoryConfig(latency=50, contention=False),
        technique=TechniqueConfig(
            name=technique, decay_cycles=decay_cycles,
            counter_mode=counter_mode),
        **overrides,
    )


@pytest.fixture
def baseline_cfg() -> CMPConfig:
    """Tiny baseline config."""
    return tiny_config(BASELINE)


@pytest.fixture
def protocol_cfg() -> CMPConfig:
    """Tiny protocol-technique config."""
    return tiny_config(PROTOCOL)


@pytest.fixture
def decay_cfg() -> CMPConfig:
    """Tiny fixed-decay config (2000-cycle decay)."""
    return tiny_config(DECAY)


@pytest.fixture
def sd_cfg() -> CMPConfig:
    """Tiny selective-decay config."""
    return tiny_config(SELECTIVE_DECAY)


def make_system(cfg: CMPConfig):
    """Fresh MemorySystem for a config."""
    from repro.hierarchy.system import MemorySystem

    return MemorySystem(cfg)


def line(n: int) -> int:
    """n-th distinct line address (spread across sets)."""
    return 0x4000 + n


#: the smallest legal scale: every smoke-sized run uses it
SMOKE_SCALE = 0.04


@pytest.fixture(scope="session")
def tiny_technique_runs():
    """uniform on the tiny 64 KB-L2 config: ``{technique: (cfg, result)}``.

    Decay techniques use a 3000-cycle decay time (baseline and protocol
    ignore it).  The simulator's cross-technique checks and the energy
    pipeline's tests read these same runs, so each simulates once.
    """
    from repro import simulate
    from repro.workloads.registry import get_workload

    wl = get_workload("uniform", scale=SMOKE_SCALE)
    out = {}
    for tech in (BASELINE, PROTOCOL, DECAY, SELECTIVE_DECAY):
        cfg = tiny_config(tech, decay_cycles=3000, l2_kb=64)
        out[tech] = (cfg, simulate(cfg, wl))
    return out


@pytest.fixture(scope="session")
def tiny_sampled_run():
    """uniform on the tiny config, sampled every 5000 cycles: ``(cfg, res)``."""
    from dataclasses import replace

    from repro import simulate
    from repro.workloads.registry import get_workload

    cfg = replace(tiny_config(), sample_interval=5_000)
    return cfg, simulate(cfg, get_workload("uniform", scale=SMOKE_SCALE))


@pytest.fixture(scope="session")
def reference_runner(tmp_path_factory):
    """The serial engine at smoke scale, one cache for the whole session.

    Backend, chaos, replay and figure tests all compare against (or
    render) the same few smoke points: uniform and pingpong at 1 MB
    under baseline, protocol and decay64K.  Each point is simulated the
    first time a test asks for it and served from this runner's memo
    and cache after that.  Tests read from it, or copy its blobs out
    with :func:`seed_cache`; none deletes or rewrites its entries.
    """
    from repro.harness.runner import SweepRunner

    return SweepRunner(
        scale=SMOKE_SCALE,
        cache_dir=str(tmp_path_factory.mktemp("reference") / "cache"),
        verbose=False,
    )


def seed_cache(reference, runner, points) -> None:
    """Copy the reference blobs of ``points`` into ``runner``'s cache.

    Baseline twins come along, so ``runner`` then serves every metric of
    ``points`` from its cache.  The copies are the serial engine's own
    bytes: a seeded runner holds exactly what it would have written had
    it simulated the points itself (the key check below refuses a runner
    whose context would have produced something else).
    """
    for point in points:
        for p in (point.baseline_twin(), point):
            reference.run_point(p)
            key = reference.point_key(p)
            assert runner.point_key(p) == key, "runner context differs"
            runner.cache.put_bytes(key, reference.cache.read_bytes(key))
