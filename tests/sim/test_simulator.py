"""End-to-end simulator runs on small synthetic workloads."""

import pytest

from repro import Simulator, simulate
from repro.sim.stats import SimResult
from repro.workloads.registry import get_workload
from tests.conftest import tiny_config

SCALE = 0.04


@pytest.fixture(scope="module")
def uniform_wl():
    return get_workload("uniform", scale=SCALE)


@pytest.fixture(scope="module")
def uniform_result(uniform_wl):
    """One baseline run of the tiny config, shared by read-only checks."""
    return simulate(tiny_config("baseline"), uniform_wl)


class TestBasicRun:
    def test_completes_and_counts(self, uniform_wl, uniform_result):
        res = uniform_result
        expected = uniform_wl.meta.accesses_per_core
        for core in res.cores:
            assert core.loads + core.stores == expected
        assert res.total_cycles > 0
        assert res.ipc > 0

    def test_baseline_occupancy_is_one(self, uniform_result):
        res = uniform_result
        assert res.occupancy == pytest.approx(1.0)

    def test_deterministic(self, uniform_wl, uniform_result):
        a = uniform_result
        b = simulate(tiny_config(), uniform_wl)
        assert a.total_cycles == b.total_cycles
        assert a.l2_miss_rate == b.l2_miss_rate
        assert a.ipc == b.ipc

    def test_serialization_roundtrip(self, uniform_result):
        res = uniform_result
        again = SimResult.from_dict(res.to_dict())
        assert again.total_cycles == res.total_cycles
        assert again.occupancy == res.occupancy
        assert again.ipc == res.ipc

    def test_summary_renders(self, uniform_result):
        res = uniform_result
        s = res.summary()
        assert "IPC" in s and "occupancy" in s

    def test_event_heap_loses_no_drains(self, uniform_wl):
        # every buffered store must drain by completion: a dropped or
        # stale-swallowed heap entry would leave a pending deadline
        sim = Simulator(tiny_config())
        res = sim.run(uniform_wl)
        for l1 in sim.system.l1s:
            assert l1.next_drain_time() == -1
            assert not l1.drain_dirty
        drains = sum(l1.write_buffer.stats.drains for l1 in sim.system.l1s)
        inserts = sum(l1.write_buffer.stats.inserts for l1 in sim.system.l1s)
        coalesced = sum(
            l1.write_buffer.stats.coalesced for l1 in sim.system.l1s
        )
        assert drains == inserts - coalesced
        assert sum(s.writes for s in res.l2) == drains


class TestBarrierWorkloads:
    def test_phased_workload_completes(self):
        wl = get_workload("water_ns", scale=SCALE)
        res = simulate(tiny_config(), wl)
        assert all(c.barriers >= 8 for c in res.cores)
        # all cores end within one barrier release of each other
        cycles = [c.cycles for c in res.cores]
        assert max(cycles) > 0


class TestWarmup:
    def test_warmup_reduces_counted_work(self, uniform_wl, uniform_result):
        full = uniform_result
        warm = simulate(tiny_config(), uniform_wl, warmup_fraction=0.5)
        assert warm.total_instructions < full.total_instructions
        assert warm.total_cycles < full.total_cycles

    def test_warmup_validation(self, uniform_wl):
        with pytest.raises(ValueError):
            simulate(tiny_config(), uniform_wl, warmup_fraction=1.5)

    def test_event_budget_guard(self, uniform_wl):
        with pytest.raises(RuntimeError):
            simulate(tiny_config(), uniform_wl, max_events=10)


class TestTechniqueInvariants:
    """Cross-technique orderings that must hold on any workload."""

    @pytest.fixture(scope="class")
    def results(self, tiny_technique_runs):
        return {tech: res for tech, (_, res) in tiny_technique_runs.items()}

    def test_occupancy_ordering(self, results):
        assert results["baseline"].occupancy == pytest.approx(1.0)
        assert results["protocol"].occupancy <= 1.0
        assert results["decay"].occupancy <= results["selective_decay"].occupancy
        assert results["selective_decay"].occupancy <= \
            results["protocol"].occupancy + 1e-9

    def test_protocol_matches_baseline_performance(self, results):
        # "This technique does not incur in any performance loss."
        assert results["protocol"].ipc == pytest.approx(
            results["baseline"].ipc, rel=1e-6)
        assert results["protocol"].l2_miss_rate == pytest.approx(
            results["baseline"].l2_miss_rate, rel=1e-6)

    def test_decay_misses_at_least_baseline(self, results):
        assert results["decay"].l2_miss_rate >= \
            results["baseline"].l2_miss_rate - 1e-9

    def test_decay_not_faster(self, results):
        assert results["decay"].ipc <= results["baseline"].ipc + 1e-9

    def test_sampling_collects(self, tiny_sampled_run):
        _, res = tiny_sampled_run
        assert len(res.samples) > 0
        total_instr = sum(sum(s.core_instructions) for s in res.samples)
        assert total_instr == res.total_instructions
