"""Experiment harness: workload generators, per-experiment series
builders, the parallel sweep scheduler and the ``repro-bench`` CLI
runner (README, "Benchmarks and sweeps")."""

from repro.bench.sweep import (
    SweepOutcome,
    SweepReport,
    SweepSpec,
    SweepUnit,
    derive_seed,
    expand_grid,
    run_sweep,
)
from repro.bench.workloads import (
    byzantine_sample,
    input_vector,
    rumor_vector,
    table1_fault_bound,
)

__all__ = [
    "SweepOutcome",
    "SweepReport",
    "SweepSpec",
    "SweepUnit",
    "byzantine_sample",
    "derive_seed",
    "expand_grid",
    "input_vector",
    "rumor_vector",
    "run_sweep",
    "table1_fault_bound",
]
