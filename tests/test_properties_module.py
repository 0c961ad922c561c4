"""The correctness predicates themselves must catch violations: each
test fabricates a broken execution and expects PropertyViolation."""

import pytest

from repro.properties import (
    PropertyViolation,
    check_aea,
    check_checkpointing,
    check_consensus,
    check_gossip,
    check_scv,
)
from repro.sim.engine import RunResult
from repro.sim.metrics import Metrics
from repro.sim.process import Process


def fake_result(n, decisions, crashed=(), completed=True, sent=None):
    processes = [Process(pid, n) for pid in range(n)]
    metrics = Metrics()
    for pid in range(n):
        metrics.per_node_messages[pid] = 1 if sent is None else sent.get(pid, 0)
    result = RunResult(
        processes=processes,
        metrics=metrics,
        crashed=set(crashed),
        byzantine=frozenset(),
        completed=completed,
        decisions=dict(decisions),
    )
    return result


class TestConsensusPredicate:
    def test_accepts_valid(self):
        result = fake_result(3, {0: 1, 1: 1, 2: 1})
        check_consensus(result, [1, 0, 1])

    def test_catches_disagreement(self):
        result = fake_result(3, {0: 1, 1: 0, 2: 1})
        with pytest.raises(PropertyViolation, match="agreement"):
            check_consensus(result, [1, 0, 1])

    def test_catches_invalid_value(self):
        result = fake_result(3, {0: 7, 1: 7, 2: 7})
        with pytest.raises(PropertyViolation, match="validity"):
            check_consensus(result, [1, 0, 1])

    def test_catches_undecided(self):
        result = fake_result(3, {0: 1, 1: 1})
        with pytest.raises(PropertyViolation, match="termination"):
            check_consensus(result, [1, 0, 1])

    def test_crashed_nodes_excused(self):
        result = fake_result(3, {0: 1, 1: 1}, crashed={2})
        check_consensus(result, [1, 0, 1])

    def test_catches_incomplete_run(self):
        result = fake_result(3, {0: 1, 1: 1, 2: 1}, completed=False)
        with pytest.raises(PropertyViolation, match="complete"):
            check_consensus(result, [1, 0, 1])


class TestAEAPredicate:
    def test_accepts_enough_deciders(self):
        result = fake_result(5, {0: 1, 1: 1, 2: 1})
        check_aea(result, [1, 1, 1, 0, 0])

    def test_catches_poor_coverage(self):
        result = fake_result(5, {0: 1})
        with pytest.raises(PropertyViolation, match="coverage"):
            check_aea(result, [1, 1, 1, 0, 0])

    def test_crashes_count_toward_coverage(self):
        result = fake_result(5, {0: 1}, crashed={1, 2})
        check_aea(result, [1, 1, 1, 0, 0])

    def test_catches_decider_disagreement(self):
        result = fake_result(5, {0: 1, 1: 0, 2: 1})
        with pytest.raises(PropertyViolation, match="agreement"):
            check_aea(result, [1, 1, 1, 0, 0])


class TestSCVPredicate:
    def test_accepts_spread_value(self):
        result = fake_result(3, {0: "V", 1: "V", 2: "V"})
        check_scv(result, "V")

    def test_catches_wrong_value(self):
        result = fake_result(3, {0: "V", 1: "W", 2: "V"})
        with pytest.raises(PropertyViolation, match="wrong"):
            check_scv(result, "V")

    def test_catches_missing_node(self):
        result = fake_result(3, {0: "V", 1: "V"})
        with pytest.raises(PropertyViolation):
            check_scv(result, "V")


class TestGossipPredicate:
    def test_accepts_complete_sets(self):
        extant = ((0, "a"), (1, "b"), (2, "c"))
        result = fake_result(3, {pid: extant for pid in range(3)})
        check_gossip(result, ["a", "b", "c"])

    def test_catches_missing_operational_pair(self):
        extant = ((0, "a"), (1, "b"))
        result = fake_result(3, {pid: extant for pid in range(3)})
        with pytest.raises(PropertyViolation, match="condition \\(2\\)"):
            check_gossip(result, ["a", "b", "c"])

    def test_catches_silent_crash_inclusion(self):
        # Node 2 crashed having sent nothing, yet appears in a set.
        extant = ((0, "a"), (1, "b"), (2, "c"))
        result = fake_result(
            3,
            {0: extant, 1: extant},
            crashed={2},
            sent={0: 1, 1: 1, 2: 0},
        )
        with pytest.raises(PropertyViolation, match="condition \\(1\\)"):
            check_gossip(result, ["a", "b", "c"])

    def test_catches_rumor_corruption(self):
        extant = ((0, "a"), (1, "XXX"), (2, "c"))
        result = fake_result(3, {pid: extant for pid in range(3)})
        with pytest.raises(PropertyViolation, match="fidelity"):
            check_gossip(result, ["a", "b", "c"])


class TestCheckpointingPredicate:
    def test_accepts_equal_sets(self):
        members = frozenset({0, 1, 2})
        result = fake_result(3, {pid: members for pid in range(3)})
        check_checkpointing(result)

    def test_catches_unequal_sets(self):
        result = fake_result(
            3,
            {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 2: frozenset({0, 1, 2})},
        )
        with pytest.raises(PropertyViolation, match="condition \\(3\\)"):
            check_checkpointing(result)

    def test_catches_missing_operational(self):
        members = frozenset({0, 1})
        result = fake_result(3, {pid: members for pid in range(3)})
        with pytest.raises(PropertyViolation, match="condition \\(2\\)"):
            check_checkpointing(result)
