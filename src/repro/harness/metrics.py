"""Derived metrics: the quantities the paper's figures actually plot.

Every figure is a comparison against the unoptimized baseline run of the
same workload and cache size, so each helper takes (baseline, optimized)
pairs.  Sign conventions follow the paper: "increase" and "loss" are
positive when the technique is worse, "reduction" is positive when it is
better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..power.energy import EnergyBreakdown
from ..sim.stats import SimResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .spec import SweepPoint


def occupancy(result: SimResult) -> float:
    """Fig 3(a): L2 occupation rate."""
    return result.occupancy


def l2_miss_rate(result: SimResult) -> float:
    """Fig 3(b): aggregate L2 miss rate."""
    return result.l2_miss_rate


def bandwidth_increase(baseline: SimResult, optimized: SimResult) -> float:
    """Fig 4(a): relative increase in off-chip traffic density."""
    b = baseline.memory_bytes_per_cycle
    if b <= 0:
        return 0.0
    return optimized.memory_bytes_per_cycle / b - 1.0


def amat_increase(baseline: SimResult, optimized: SimResult) -> float:
    """Fig 4(b): relative increase of the average memory access time."""
    b = baseline.amat
    if b <= 0:
        return 0.0
    return optimized.amat / b - 1.0


def ipc_loss(baseline: SimResult, optimized: SimResult) -> float:
    """Fig 5(b)/6(b): relative IPC degradation."""
    b = baseline.ipc
    if b <= 0:
        return 0.0
    return 1.0 - optimized.ipc / b


def energy_reduction(baseline: EnergyBreakdown, optimized: EnergyBreakdown) -> float:
    """Fig 5(a)/6(a): relative system energy saved."""
    if baseline.total <= 0:
        return 0.0
    return 1.0 - optimized.total / baseline.total


def decay_induced_miss_fraction(result: SimResult) -> float:
    """Share of L2 accesses that missed only because a line was gated."""
    acc = sum(s.accesses for s in result.l2)
    if not acc:
        return 0.0
    return sum(s.decay_induced_misses for s in result.l2) / acc


@dataclass
class PointMetrics:
    """All paper metrics for one (workload, size, technique) point."""

    workload: str
    total_mb: int
    technique: str
    occupancy: float
    miss_rate: float
    bandwidth_increase: float
    amat_increase: float
    ipc_loss: float
    energy_reduction: float
    l2_leakage_share: float
    peak_temp_c: Optional[float] = None
    #: the point's n_cores override (None = the runner's default); kept
    #: so core-scaling tables can tell their rows apart
    n_cores: Optional[int] = None

    @classmethod
    def for_point(
        cls,
        point: "SweepPoint",
        base_res: SimResult,
        base_energy: EnergyBreakdown,
        res: SimResult,
        energy: EnergyBreakdown,
    ) -> "PointMetrics":
        """Bundle every figure metric for one typed sweep point."""
        return cls.compute(
            point.workload,
            point.total_mb,
            point.tech_label,
            base_res,
            base_energy,
            res,
            energy,
            n_cores=point.n_cores,
        )

    @classmethod
    def compute(
        cls,
        workload: str,
        total_mb: int,
        technique: str,
        base_res: SimResult,
        base_energy: EnergyBreakdown,
        res: SimResult,
        energy: EnergyBreakdown,
        n_cores: Optional[int] = None,
    ) -> "PointMetrics":
        """Bundle every figure metric for one sweep point."""
        peak = (
            max(energy.temperatures.values()) - 273.15
            if energy.temperatures
            else None
        )
        return cls(
            workload=workload,
            total_mb=total_mb,
            technique=technique,
            occupancy=occupancy(res),
            miss_rate=l2_miss_rate(res),
            bandwidth_increase=bandwidth_increase(base_res, res),
            amat_increase=amat_increase(base_res, res),
            ipc_loss=ipc_loss(base_res, res),
            energy_reduction=energy_reduction(base_energy, energy),
            l2_leakage_share=energy.l2_leakage_share,
            peak_temp_c=peak,
            n_cores=n_cores,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain dict (JSON-friendly)."""
        return {
            "workload": self.workload,
            "total_mb": self.total_mb,
            "technique": self.technique,
            "occupancy": self.occupancy,
            "miss_rate": self.miss_rate,
            "bandwidth_increase": self.bandwidth_increase,
            "amat_increase": self.amat_increase,
            "ipc_loss": self.ipc_loss,
            "energy_reduction": self.energy_reduction,
            "l2_leakage_share": self.l2_leakage_share,
            "peak_temp_c": self.peak_temp_c,
            "n_cores": self.n_cores,
        }
