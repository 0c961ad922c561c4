"""Tests for the Theorem 13 lower-bound constructions."""

import math

from repro.baselines.ring_gossip import RingGossipProcess
from repro.core.params import ProtocolParams
from repro.lowerbounds import (
    divergence_series,
    find_pivotal_index,
    isolation_report,
    staircase,
)
from repro.singleport.linear_consensus import (
    LinearConsensusProcess,
    linear_consensus_schedule,
)
from repro.sim.engine import Engine


def ring_factory(n):
    return lambda rumors: [RingGossipProcess(i, n, rumors[i]) for i in range(n)]


def consensus_factory(n, t=3, seed=3):
    params = ProtocolParams(n=n, t=t, seed=seed)
    schedule, shared = linear_consensus_schedule(params)

    def build(inputs):
        return [
            LinearConsensusProcess(
                pid, params, inputs[pid], schedule=schedule, shared=shared
            )
            for pid in range(n)
        ]

    return build


class TestStaircase:
    def test_shape(self):
        assert staircase(5, 2) == [0, 0, 1, 1, 1]
        assert staircase(3, 4) == [0, 0, 0]

    def test_pivot_found_for_linear_consensus(self):
        n = 40
        factory = consensus_factory(n)
        pivot = find_pivotal_index(factory, n)
        # The OR-flooding decision flips when the last little node's 1
        # disappears: the pivot is the last committee name.
        params = ProtocolParams(n=n, t=3, seed=3)
        assert pivot == params.little_count - 1


class TestGossipIsolation:
    def test_isolation_lasts_omega_t_rounds(self):
        n, t = 40, 14
        factory = ring_factory(n)
        rumors_a = ["x"] * n
        rumors_b = ["x"] * n
        rumors_b[7] = "y"
        report = isolation_report(factory, rumors_a, rumors_b, t)
        assert report.digests_matched
        assert report.isolated_rounds >= t // 2 - 1
        assert report.crashes_used <= t

    def test_budget_scaling(self):
        # Doubling t should roughly double the isolation horizon.
        n = 60
        factory = ring_factory(n)
        rumors_a, rumors_b = ["x"] * n, ["x"] * n
        rumors_b[5] = "y"
        small = isolation_report(factory, rumors_a, rumors_b, 10)
        large = isolation_report(factory, rumors_a, rumors_b, 20)
        assert large.isolated_rounds >= 2 * small.isolated_rounds - 2

    def test_ring_gossip_is_correct_failure_free(self):
        n = 30
        processes = ring_factory(n)([f"r{i}" for i in range(n)])
        result = Engine(processes).run()
        assert result.completed
        for extant in result.correct_decisions().values():
            assert len(extant) == n


class TestConsensusDivergence:
    def test_cubic_divergence_invariant(self):
        n = 40
        factory = consensus_factory(n)
        report = divergence_series(factory, n)
        assert report.respects_cubic_bound()

    def test_divergence_starts_at_pivot_only(self):
        n = 40
        factory = consensus_factory(n)
        report = divergence_series(factory, n)
        assert report.divergence[0] <= 3

    def test_decision_after_log3_n_rounds(self):
        # Theorem 13: deciding earlier than log₃ n rounds is impossible;
        # our executions decide far later (the schedule is Θ(t + log n)
        # single-port rounds).
        n = 40
        factory = consensus_factory(n)
        report = divergence_series(factory, n)
        assert report.first_decision_round >= math.log(n, 3)
