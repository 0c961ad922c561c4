"""Integration tests for single-port Linear-Consensus (Sec. 8, Thm. 12)."""

import pytest

from repro.core.params import ProtocolParams
from repro.singleport.linear_consensus import (
    LinearConsensusProcess,
    linear_consensus_schedule,
)
from repro.singleport.transformer import WindowSchedule
from repro.sim import Engine, crash_schedule
from tests.conftest import linear_vector, random_bits


def run_linear(n, t, inputs, crashes_kind="random", seed=0, overlay_seed=3):
    factory, horizon = linear_vector(n, t, inputs, overlay_seed)
    adversary = (
        crash_schedule(n, t, seed=seed, kind=crashes_kind, max_round=horizon)
        if crashes_kind
        else None
    )
    return Engine(factory(), adversary, max_rounds=horizon).run()


def assert_consensus(result, inputs):
    assert result.completed
    decisions = result.correct_decisions()
    correct = [p.pid for p in result.processes if p.pid not in result.crashed]
    assert set(decisions) == set(correct)
    values = set(decisions.values())
    assert len(values) == 1
    assert values.pop() in set(inputs)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_crashes(self, seed):
        n, t = 80, 12
        inputs = random_bits(n, seed)
        result = run_linear(n, t, inputs, seed=seed)
        assert_consensus(result, inputs)

    @pytest.mark.parametrize("kind", ["early", "late", "staggered"])
    def test_adversary_kinds(self, kind):
        n, t = 80, 12
        inputs = random_bits(n, 4)
        result = run_linear(n, t, inputs, crashes_kind=kind, seed=1)
        assert_consensus(result, inputs)

    def test_unanimous(self):
        n, t = 60, 8
        for value in (0, 1):
            result = run_linear(n, t, [value] * n, seed=1)
            assert set(result.correct_decisions().values()) == {value}

    def test_failure_free(self):
        n, t = 60, 8
        inputs = random_bits(n, 6)
        result = run_linear(n, t, inputs, crashes_kind=None)
        assert_consensus(result, inputs)
        assert len(result.correct_decisions()) == n

    def test_t_zero(self):
        inputs = random_bits(40, 7)
        result = run_linear(40, 0, inputs, crashes_kind=None)
        assert_consensus(result, inputs)

    def test_rejects_large_t(self):
        params = ProtocolParams(n=20, t=4)
        with pytest.raises(ValueError):
            LinearConsensusProcess(0, params, 0)

    def test_rejects_non_binary_input(self):
        params = ProtocolParams(n=60, t=5)
        with pytest.raises(ValueError):
            LinearConsensusProcess(0, params, 2)


class TestSinglePortDiscipline:
    def test_schedule_segments_ordered(self):
        params = ProtocolParams(n=100, t=15, seed=3)
        schedule, _ = linear_consensus_schedule(params)
        names = [s.name for s in schedule.segments]
        assert names[0] == "flood" and names[1] == "probe" and names[2] == "spread"
        assert names[-1] == "ring"
        ends = [s.end for s in schedule.segments]
        assert ends == sorted(ends)

    def test_windows_have_sends_before_polls(self):
        # A process never polls in the first half of a flood window and
        # never sends in the second half.
        n, t = 60, 8
        params = ProtocolParams(n=n, t=t, seed=3)
        schedule, shared = linear_consensus_schedule(params)
        proc = LinearConsensusProcess(0, params, 1, schedule=schedule, shared=shared)
        flood = schedule.segments[0]
        half = flood.window_len // 2
        assert proc.poll(flood.start) is None  # slot 0: send side
        assert proc.emit(flood.start + half) is None  # slot half: poll side


class TestTheorem12Shape:
    def test_rounds_linear_in_t_plus_log_n(self):
        # Theorem 12: O(t + log n) rounds; the schedule length is the
        # round count, so check its growth is linear in t.
        lengths = {}
        n = 400
        for t in (10, 20, 40):
            params = ProtocolParams(n=n, t=t, seed=3)
            schedule, _ = linear_consensus_schedule(params)
            lengths[t] = schedule.end
        # Doubling t should roughly double the schedule (committee part
        # dominates): allow a factor [1.5, 3].
        assert 1.5 <= lengths[20] / lengths[10] <= 3
        assert 1.5 <= lengths[40] / lengths[20] <= 3

    def test_bits_linear_shape(self):
        # Theorem 12: O(n + t log n) bits.
        n, t = 120, 18
        inputs = random_bits(n, 2)
        result = run_linear(n, t, inputs, seed=2)
        params = ProtocolParams(n=n, t=t, seed=3)
        committee = (
            params.little_count
            * params.little_degree
            * (params.little_probe_rounds + 1)
        )
        bound = committee + 40 * n
        assert result.bits <= bound

    def test_one_send_per_round_enforced_by_engine(self):
        # The discipline holds by the type (emit returns one message);
        # a full run completing inside the schedule's own horizon is
        # the witness that the protocol lives within it.
        n, t = 60, 8
        result = run_linear(n, t, random_bits(n, 3), seed=3)
        assert result.completed


class TestWindowSchedule:
    def test_locate(self):
        schedule = WindowSchedule()
        first = schedule.append("a", windows=3, window_len=4)
        second = schedule.append("b", windows=2, window_len=5)
        seg, window, slot = schedule.locate(0)
        assert (seg.name, window, slot) == ("a", 0, 0)
        seg, window, slot = schedule.locate(11)
        assert (seg.name, window, slot) == ("a", 2, 3)
        seg, window, slot = schedule.locate(12)
        assert (seg.name, window, slot) == ("b", 0, 0)
        assert schedule.locate(22) is None
        assert schedule.locate(-1) is None
        assert first.end == 12 and second.end == 22

    def test_invalid_segment_rejected(self):
        schedule = WindowSchedule()
        with pytest.raises(ValueError):
            schedule.append("bad", windows=1, window_len=0)
