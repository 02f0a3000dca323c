"""Workloads: trace format, pattern components, and benchmark models.

Synthetic, parameterized stand-ins for the paper's SPLASH-2 and ALPBench
benchmarks (see DESIGN.md §4 for the substitution rationale), plus simple
synthetic workloads for tests and examples.
"""

from .address_space import AddressSpace, Region
from .alpbench import facerec, mpeg2dec, mpeg2enc
from .patterns import (
    ColdStream,
    HotSet,
    LaggedRevisit,
    MigratoryChunk,
    PointerChase,
    ProducerConsumer,
    SharedSweep,
    TrailingRevisit,
)
from .phases import (
    PhaseSpec,
    estimate_cycles_per_access,
    lag_accesses,
    phase_stream,
    phased_workload,
)
from .registry import (
    MULTIMEDIA,
    PAPER_BENCHMARKS,
    SCIENTIFIC,
    get_workload,
    list_workloads,
    register_workload,
)
from .scaling import (
    BASE_ACCESSES_PER_CORE,
    MIN_SUPPORTED_SCALE,
    accesses_per_core,
    check_scale,
    decay_unit,
)
from .splash2 import fmm, volrend, water_ns
from .trace import (
    ILP_DEPENDENT,
    ILP_MODERATE,
    ILP_STREAMING,
    Record,
    ReplayWorkload,
    Workload,
    WorkloadMeta,
    barrier_record,
    ilp_class,
    is_barrier,
    is_write,
    make_flags,
    validate_stream,
)

__all__ = [
    "AddressSpace",
    "Region",
    "facerec",
    "mpeg2dec",
    "mpeg2enc",
    "ColdStream",
    "HotSet",
    "LaggedRevisit",
    "MigratoryChunk",
    "PointerChase",
    "ProducerConsumer",
    "SharedSweep",
    "TrailingRevisit",
    "PhaseSpec",
    "estimate_cycles_per_access",
    "lag_accesses",
    "phase_stream",
    "phased_workload",
    "MULTIMEDIA",
    "PAPER_BENCHMARKS",
    "SCIENTIFIC",
    "get_workload",
    "list_workloads",
    "register_workload",
    "BASE_ACCESSES_PER_CORE",
    "MIN_SUPPORTED_SCALE",
    "accesses_per_core",
    "check_scale",
    "decay_unit",
    "fmm",
    "volrend",
    "water_ns",
    "ILP_DEPENDENT",
    "ILP_MODERATE",
    "ILP_STREAMING",
    "Record",
    "ReplayWorkload",
    "Workload",
    "WorkloadMeta",
    "barrier_record",
    "ilp_class",
    "is_barrier",
    "is_write",
    "make_flags",
    "validate_stream",
]
