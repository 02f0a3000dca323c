"""Energy pipeline: fixpoint behaviour, technique orderings, calibration."""

import pytest

from repro import CMPConfig, TechniqueConfig, simulate
from repro.power.calibration import share_band
from repro.power.energy import EnergyModel, energy_reduction
from repro.workloads.registry import get_workload

SCALE = 0.04


@pytest.fixture(scope="module")
def runs(tiny_technique_runs):
    """Small paired runs across techniques on one workload."""
    out = {}
    for tech in ("baseline", "protocol", "decay"):
        cfg, res = tiny_technique_runs[tech]
        out[tech] = (cfg, res, EnergyModel(cfg).evaluate(res))
    return out


class TestBreakdown:
    def test_total_is_sum_of_parts(self, runs):
        _, _, bd = runs["baseline"]
        assert bd.total == pytest.approx(
            bd.dynamic_total + bd.leakage_total)
        assert bd.dynamic_total == pytest.approx(
            bd.core_dynamic + bd.l1_dynamic + bd.l2_dynamic
            + bd.bus_dynamic + bd.counter_dynamic)

    def test_fixpoint_converges(self, runs):
        for tech in runs:
            assert runs[tech][2].fixpoint_iterations < 25

    def test_temperatures_above_ambient(self, runs):
        _, _, bd = runs["baseline"]
        from repro.thermal.rc_model import T_AMBIENT

        assert all(t > T_AMBIENT for t in bd.temperatures.values())

    def test_all_components_positive(self, runs):
        _, _, bd = runs["baseline"]
        assert bd.core_dynamic > 0
        assert bd.l1_dynamic > 0
        assert bd.l2_dynamic > 0
        assert bd.core_leakage > 0
        assert bd.l2_leakage > 0
        assert bd.duration_s > 0

    def test_baseline_has_no_counter_energy(self, runs):
        _, _, bd = runs["baseline"]
        assert bd.counter_dynamic == 0
        assert bd.counter_leakage == 0

    def test_decay_has_counter_energy(self, runs):
        _, _, bd = runs["decay"]
        assert bd.counter_dynamic > 0
        assert bd.counter_leakage > 0

    def test_summary_renders(self, runs):
        assert "L2 leakage" in runs["baseline"][2].summary()


class TestTechniqueOrdering:
    def test_gating_reduces_l2_leakage(self, runs):
        # On this cache-resident workload Protocol gates almost nothing
        # (the paper's small-cache regime: savings ~0, and the Gated-Vdd
        # area overhead can even flip the sign); Decay must clearly win.
        base = runs["baseline"][2].l2_leakage
        prot = runs["protocol"][2].l2_leakage
        dec = runs["decay"][2].l2_leakage
        assert dec < 0.5 * base
        assert dec < prot
        assert prot <= base * 1.06  # at most the 5% area overhead

    def test_energy_reduction_sign(self, runs):
        base = runs["baseline"][2]
        assert energy_reduction(base, base) == pytest.approx(0.0)
        assert energy_reduction(base, runs["protocol"][2]) >= -0.02

    def test_decay_cooler_than_baseline(self, runs):
        tb = max(runs["baseline"][2].temperatures.values())
        td = max(runs["decay"][2].temperatures.values())
        assert td <= tb


@pytest.fixture(scope="module")
def size_breakdowns():
    """Baseline energy breakdown of the paper config per total L2 (MB)."""
    wl = get_workload("uniform", scale=SCALE)
    out = {}
    for mb in (1, 4, 8):
        cfg = CMPConfig().with_total_l2_mb(mb)
        out[mb] = EnergyModel(cfg).evaluate(simulate(cfg, wl))
    return out


class TestCalibration:
    """The L2-leakage share must land inside the paper-implied bands."""

    @pytest.mark.parametrize("total_mb", [1, 4, 8])
    def test_share_bands(self, total_mb, size_breakdowns):
        bd = size_breakdowns[total_mb]
        lo, hi = share_band(total_mb)
        assert lo <= bd.l2_leakage_share <= hi, (
            f"{total_mb}MB share {bd.l2_leakage_share:.1%} outside "
            f"[{lo:.1%}, {hi:.1%}]")

    def test_share_grows_with_size(self, size_breakdowns):
        shares = [size_breakdowns[mb].l2_leakage_share for mb in (1, 4, 8)]
        assert shares[0] < shares[1] < shares[2]


class TestTransientMode:
    def test_requires_samples(self, runs):
        cfg, res, _ = runs["baseline"]
        with pytest.raises(ValueError):
            EnergyModel(cfg).transient_temperatures(res)

    def test_transient_trace(self, tiny_sampled_run):
        cfg, res = tiny_sampled_run
        model = EnergyModel(cfg)
        trace = model.transient_temperatures(res)
        assert len(trace) == len(res.samples)
        assert all(t["core0"] >= model.thermal.params.t_ambient - 1
                   for t in trace)
