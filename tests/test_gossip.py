"""Integration tests for Gossip (Fig. 5, Thm. 9)."""

import gc
import hashlib
import json
import tracemalloc

import pytest

from repro import check_gossip, run_checkpointing, run_gossip, scenario_schedule
from repro.core.params import ProtocolParams
from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.vec import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="no numpy")


def rumors_for(n):
    return [f"rumor-{i}" for i in range(n)]


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_crashes(self, seed):
        n, t = 100, 15
        rumors = rumors_for(n)
        result = run_gossip(rumors, t, crashes="random", seed=seed)
        check_gossip(result, rumors)

    @pytest.mark.parametrize("kind", ["early", "late", "staggered"])
    def test_adversary_kinds(self, kind):
        n, t = 100, 15
        rumors = rumors_for(n)
        result = run_gossip(rumors, t, crashes=kind, seed=2)
        check_gossip(result, rumors)

    def test_failure_free_sets_complete_and_equal(self):
        n = 60
        rumors = rumors_for(n)
        result = run_gossip(rumors, 8, crashes=None)
        check_gossip(result, rumors)
        sets = list(result.correct_decisions().values())
        assert all(s == sets[0] for s in sets)
        assert len(sets[0]) == n

    def test_silent_crash_excluded_everywhere(self):
        # Condition (1): a node that crashed before sending anything is
        # in nobody's decided set.
        n, t = 80, 10
        victim = 70  # a non-little node, crashed with zero deliveries
        schedule = ScheduledCrashes({victim: CrashSpec(round=0, keep=0)})
        rumors = rumors_for(n)
        result = run_gossip(rumors, t, crashes=schedule)
        check_gossip(result, rumors)
        for extant in result.correct_decisions().values():
            assert all(q != victim for q, _ in extant)

    def test_t_zero(self):
        rumors = rumors_for(40)
        result = run_gossip(rumors, 0, crashes=None)
        check_gossip(result, rumors)

    def test_rejects_large_t(self):
        with pytest.raises(ValueError):
            run_gossip(rumors_for(20), 4)


class TestPerformanceShape:
    def test_rounds_polylogarithmic(self):
        # Theorem 9: O(log n · log t) rounds -- wildly sublinear in n.
        for n in (100, 200, 400):
            t = n // 10
            params = ProtocolParams(n=n, t=t)
            result = run_gossip(rumors_for(n), t, crashes="random", seed=1)
            bound = 2 * params.gossip_phase_count * (2 + params.little_probe_rounds)
            assert result.rounds <= bound

    def test_message_shape(self):
        # O(n + t log n log t) with the committee-degree constant.
        for n in (100, 200):
            t = n // 10
            params = ProtocolParams(n=n, t=t)
            result = run_gossip(rumors_for(n), t, crashes="random", seed=1)
            probing = (
                params.little_count
                * params.little_degree
                * params.little_probe_rounds
                * 2
                * params.gossip_phase_count
            )
            bound = 4 * n + 2 * probing
            assert result.messages <= bound

    def test_bits_account_linear_size_messages(self):
        # Probe messages are charged the full extant-set size.
        result = run_gossip(rumors_for(60), 8, crashes=None)
        assert result.bits > result.messages  # far above one bit each


def retained_bytes(run) -> int:
    """Bytes a second ``run()``'s result still holds after collection
    (the first run warms the overlay and graph caches)."""
    run()
    gc.collect()
    tracemalloc.start()
    try:
        result = run()  # noqa: F841 -- alive while measured
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestSharedPairs:
    """A node's extant set holds the ``(pid, rumor)`` pair objects its
    messages delivered, so a run holds n pairs, not n²."""

    def test_trace_digests_pinned(self):
        # Every send of one recorded run -- destinations, bits and the
        # payload digest of each SetDelta, response and inquiry -- as
        # pinned before the pairs were shared.
        result = run_gossip(rumors_for(24), 3, crashes="random", seed=5, record_trace=True)
        sends = json.dumps([[e["round"], e["sends"]] for e in result.trace.events], sort_keys=True)
        assert (
            hashlib.sha256(sends.encode()).hexdigest()
            == "7ffb14ac8f333183a86326df3e97347343ce8d6cd74e05371e0fc02e6c66847e"
        )
        assert result.messages == 12705

    @pytest.mark.parametrize("backend", ["sim", pytest.param("vec", marks=needs_numpy)])
    def test_crash_free_deciders_share_each_pair(self, backend):
        n = 40
        result = run_gossip(rumors_for(n), 5, crashes=None, backend=backend)
        decisions = list(result.decisions.values())
        assert len(decisions) == n
        for q in range(n):
            pair = decisions[0][q]
            assert pair == (q, f"rumor-{q}")
            assert all(extant[q] is pair for extant in decisions)

    @needs_numpy
    @pytest.mark.parametrize("seed", range(3))
    def test_vec_decisions_equal_sim(self, seed):
        # The kernel builds each decision by ``compress`` over one pair
        # per pid; it must equal the object code's, churn included.
        n = 30
        scenario = scenario_schedule(
            n, seed=seed, crashes=3, omission_links=4, churn_nodes=1, max_round=40
        )
        for crashes in ("random", scenario):
            runs = [
                run_gossip(rumors_for(n), 4, crashes=crashes, seed=seed, backend=backend)
                for backend in ("sim", "vec")
            ]
            assert runs[0].decisions == runs[1].decisions
            assert runs[0].messages == runs[1].messages

    @pytest.mark.parametrize("backend", ["sim", pytest.param("vec", marks=needs_numpy)])
    def test_retained_result_bytes(self, backend):
        # n = 64: n² fresh pairs alone would add ~260 kB to a gossip
        # result, and checkpointing's n gossip parts and n decoded
        # decision sets as much again.
        n = 64
        gossip = retained_bytes(
            lambda: run_gossip(rumors_for(n), 8, crashes=None, backend=backend)
        )
        checkpointing = retained_bytes(
            lambda: run_checkpointing(n, 8, crashes=None, backend=backend)
        )
        assert gossip < 400_000
        assert checkpointing < 200_000
