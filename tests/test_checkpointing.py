"""Integration tests for Checkpointing (Fig. 6, Thm. 10)."""

import random

import pytest

from repro import check_checkpointing, run_checkpointing
from repro.core.checkpointing import mask_to_set, set_to_mask
from repro.core.params import ProtocolParams
from repro.sim.adversary import CrashSpec, ScheduledCrashes


class TestMaskCodec:
    def test_roundtrip(self):
        members = {0, 3, 17, 64}
        assert mask_to_set(set_to_mask(members)) == frozenset(members)

    def test_empty(self):
        assert set_to_mask(set()) == 0
        assert mask_to_set(0) == frozenset()

    def test_dense(self):
        members = set(range(100))
        assert mask_to_set(set_to_mask(members)) == frozenset(members)

    @pytest.mark.parametrize("n", [0, 1, 160, 4096])
    def test_roundtrip_at_size(self, n):
        # Empty, full, the top pid alone and random halves of range(n).
        rng = random.Random(n)
        subsets = [set(), set(range(n)), set(range(n)[-1:])]
        subsets += [{pid for pid in range(n) if rng.random() < 0.5} for _ in range(4)]
        for members in subsets:
            mask = set_to_mask(members)
            assert mask_to_set(mask) == frozenset(members)
            assert set_to_mask(mask_to_set(mask)) == mask


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_crashes(self, seed):
        result = run_checkpointing(80, 12, crashes="random", seed=seed)
        check_checkpointing(result)

    @pytest.mark.parametrize("kind", ["early", "late"])
    def test_adversary_kinds(self, kind):
        result = run_checkpointing(80, 12, crashes=kind, seed=1)
        check_checkpointing(result)

    def test_failure_free_everyone_included(self):
        n = 60
        result = run_checkpointing(n, 8, crashes=None)
        check_checkpointing(result)
        sets = set(result.correct_decisions().values())
        assert sets == {frozenset(range(n))}

    def test_silent_crash_excluded(self):
        # Condition (1) end to end: the silent-crashed node's bit loses
        # every consensus instance.
        n, t = 80, 10
        victim = 77
        schedule = ScheduledCrashes({victim: CrashSpec(round=0, keep=0)})
        result = run_checkpointing(n, t, crashes=schedule)
        check_checkpointing(result)
        decided = next(iter(result.correct_decisions().values()))
        assert victim not in decided

    def test_operational_node_included_despite_other_crashes(self):
        n, t = 80, 10
        result = run_checkpointing(n, t, crashes="random", seed=5)
        check_checkpointing(result)
        decided = next(iter(result.correct_decisions().values()))
        assert set(result.correct_pids()) <= set(decided)

    def test_rejects_large_t(self):
        with pytest.raises(ValueError):
            run_checkpointing(20, 4)


class TestPerformanceShape:
    def test_rounds_linear_in_t(self):
        # Theorem 10: O(t + log n log t) rounds.
        for n in (80, 160):
            t = n // 10
            params = ProtocolParams(n=n, t=t)
            result = run_checkpointing(n, t, crashes="random", seed=1)
            gossip_rounds = 2 * params.gossip_phase_count * (
                2 + params.little_probe_rounds
            )
            consensus_rounds = (
                params.little_flood_rounds
                + params.little_probe_rounds
                + params.scv_spread_rounds
                + 2 * params.scv_phase_count
                + 8
            )
            assert result.rounds <= gossip_rounds + consensus_rounds

    def test_combined_messages_not_per_instance(self):
        # The n concurrent consensus instances share messages: the count
        # must be of the same order as ONE consensus plus gossip, not n
        # times it.
        from repro import run_consensus, run_gossip

        n, t = 80, 10
        result = run_checkpointing(n, t, crashes="random", seed=2)
        gossip = run_gossip([1] * n, t, crashes="random", seed=2)
        consensus = run_consensus([1] * n, t, algorithm="few", crashes="random", seed=2)
        combined_budget = gossip.messages + 4 * consensus.messages
        assert result.messages <= combined_budget
        # The consensus part alone (total minus the gossip part) stays
        # near ONE instance's cost, far from n× it.
        consensus_part = result.messages - gossip.messages
        assert consensus_part < n * consensus.messages / 10
