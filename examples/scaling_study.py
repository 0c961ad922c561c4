#!/usr/bin/env python
"""Scenario: reproduce the paper's scaling claims in one run.

Regenerates Table 1 and a per-theorem experiment sweep via the same
series builders the benchmark harness uses, and prints the tables
``repro-bench`` does (README, "Benchmarks and sweeps").

Usage::

    python examples/scaling_study.py            # quick sweep
    python examples/scaling_study.py --full     # larger n (slower)
"""

import sys

from repro.bench import series
from repro.bench.runner import format_table
from repro.bench.sweep import run_sweep


def main() -> None:
    full = "--full" in sys.argv
    ns = [128, 256, 512] if full else [96, 192]

    print("== Table 1: linear time + communication at the optimality boundaries")
    print(format_table(run_sweep(series.table1_spec(ns=ns)).rows()))

    print("\n== Theorem 7: Few-Crashes-Consensus scaling")
    print(format_table(run_sweep(series.consensus_few_spec(ns=ns)).rows()))

    print("\n== Theorem 9: Gossip scaling (polylog rounds)")
    print(format_table(run_sweep(series.gossip_spec(ns=ns)).rows()))

    print("\n== Theorem 11: AB-Consensus and the t = √n crossover")
    print(format_table(run_sweep(series.byzantine_spec(n=ns[-1])).rows()))

    print("\n== Baseline cross-comparison")
    print(format_table(run_sweep(series.baselines_spec(n=ns[-1])).rows()))


if __name__ == "__main__":
    main()
