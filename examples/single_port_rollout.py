#!/usr/bin/env python
"""Scenario: consensus over a serial NIC (the single-port model).

Some deployments can push only one message per time slot per node (one
DMA channel, one radio).  Section 8 of the paper adapts the consensus
algorithm to this single-port model at the cost of a constant window
factor; Theorem 13 shows Ω(t + log n) rounds are then unavoidable.

The script runs Linear-Consensus under the single-port discipline, compares
against the multi-port execution, and demonstrates the lower bound with
the Theorem 13 isolation adversary.

Usage::

    python examples/single_port_rollout.py
"""

from repro import check_consensus, run_consensus
from repro.baselines.ring_gossip import RingGossipProcess
from repro.bench.workloads import input_vector
from repro.core.params import ProtocolParams
from repro.lowerbounds import isolation_report
from repro.singleport.linear_consensus import (
    LinearConsensusProcess,
    linear_consensus_schedule,
)
from repro.sim import Engine, crash_schedule


def main() -> None:
    n, t = 120, 15
    inputs = input_vector(n, "random", seed=3)

    multi = run_consensus(inputs, t, algorithm="few", seed=3)
    check_consensus(multi, inputs)

    params = ProtocolParams(n=n, t=t, seed=3)
    schedule, shared = linear_consensus_schedule(params)
    processes = [
        LinearConsensusProcess(pid, params, inputs[pid], schedule=schedule, shared=shared)
        for pid in range(n)
    ]
    adversary = crash_schedule(n, t, seed=3, max_round=schedule.end)
    single = Engine(processes, adversary, max_rounds=schedule.end).run()
    check_consensus(single, inputs)

    print(f"{n} nodes, t = {t}, identical inputs:")
    print(f"  multi-port : {multi.rounds:>6} rounds, {multi.bits:>7} bits")
    print(f"  single-port: {single.rounds:>6} rounds, {single.bits:>7} bits")
    print(f"  window factor (rounds ratio): {single.rounds / multi.rounds:.1f}x "
          f"(Section 8 predicts ~2·d)")
    print(f"  segments: {[(s.name, s.windows, s.window_len) for s in schedule.segments[:3]]} ...")

    print("\nTheorem 13 lower bound (gossip isolation adversary):")
    m = 50
    factory = lambda rumors: [RingGossipProcess(i, m, rumors[i]) for i in range(m)]
    rumors_a = ["x"] * m
    rumors_b = ["x"] * m
    rumors_b[7] = "y"
    for budget in (10, 20):
        report = isolation_report(factory, rumors_a, rumors_b, budget)
        print(f"  adversary budget t = {budget:>2}: victim ignorant for "
              f"{report.isolated_rounds} rounds "
              f"({report.crashes_used} crashes spent)")


if __name__ == "__main__":
    main()
