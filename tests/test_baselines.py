"""Tests for the baseline comparators (and the comparisons themselves)."""

import random
import tracemalloc

import pytest

from repro import (
    Scenario,
    run_checkpointing,
    run_consensus,
    run_flooding,
    run_gossip,
    run_lv_consensus,
)
from repro.auth.signatures import SignatureService
from repro.baselines import (
    DSEverywhereProcess,
    FloodingConsensusProcess,
    NaiveCheckpointingProcess,
    NaiveGossipProcess,
)
from repro.core.params import ProtocolParams
from repro.properties import check_checkpointing, check_consensus, check_gossip
from repro.scenarios import CrashEvent
from repro.sim import Engine, crash_schedule
from repro.sim import process as process_module
from repro.sim.process import PEER_TABLE_SLOTS, Process, shared_peers
from tests.conftest import random_bits


class TestPeerTuple:
    """``Process.everyone_else`` is fetched by the first send from a
    table shared per ``n``: state checks, not timings, that nobody pays
    for ``n²`` destination ints, once per run or at all."""

    def test_vec_never_builds_it_and_sim_builds_it_on_first_send(self):
        pytest.importorskip("numpy")
        n = 200
        vec = run_flooding(list(range(n)), 3, backend="vec")
        assert all(proc._cache_peers is None for proc in vec.processes)
        sim = run_flooding(list(range(n)), 3, backend="sim")
        for pid, proc in enumerate(sim.processes):
            assert proc._cache_peers == tuple(
                q for q in range(n) if q != pid
            )

    def test_only_the_coordinators_that_sent_hold_one(self):
        # t = 5: coordinators 0..5, of which 2 is down before its round
        scenario = Scenario(n=40, crashes=[CrashEvent(2, 0, 0)])
        result = run_lv_consensus(
            list(range(40)), 5, crashes=scenario, backend="sim"
        )
        assert [
            proc.pid
            for proc in result.processes
            if proc._cache_peers is not None
        ] == [0, 1, 3, 4, 5]

    def test_runs_of_equal_n_hand_each_pid_the_same_tuple(self):
        first, second = (
            run_flooding(list(range(60)), 2, backend="sim") for _ in range(2)
        )
        assert all(
            a._cache_peers is b._cache_peers is shared_peers(60, a.pid)
            for a, b in zip(first.processes, second.processes)
        )

    def test_a_second_run_of_the_same_n_allocates_no_peer_tuple(self):
        n = 800
        run_flooding(list(range(n)), 1, backend="sim")
        tracemalloc.start()
        try:
            result = run_flooding(list(range(n)), 1, backend="sim")
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert all(proc._cache_peers for proc in result.processes)
        made_here = snapshot.filter_traces(
            [tracemalloc.Filter(True, process_module.__file__)]
        )
        # a peer tuple is n - 1 pointers; nothing else there is that big
        assert not [t for t in made_here.traces if t.size >= 8 * (n - 1)]

    def test_sweeping_sizes_keeps_the_tables_inside_the_bound(self):
        tables = process_module._peer_tables
        sizes = range(600, 1500, 100)  # 9.6 M slots in all
        for n in sizes:
            Process(n - 1, n).everyone_else()
            assert n in tables
            assert sum(k * (k - 1) for k in tables) <= PEER_TABLE_SLOTS
        assert len(tables) < len(sizes)

    def test_state_digest_ignores_it(self):
        sent = FloodingConsensusProcess(1, 5, 2, 7)
        fresh = FloodingConsensusProcess(1, 5, 2, 7)
        assert sent.send(0)[0].dsts == (0, 2, 3, 4)
        assert fresh._cache_peers is None
        assert sent.state_digest() == fresh.state_digest()


class TestFloodingConsensus:
    @pytest.mark.parametrize("seed", range(3))
    def test_correct_under_crashes(self, seed):
        n, t = 60, 20
        inputs = random_bits(n, seed)
        procs = [FloodingConsensusProcess(i, n, t, inputs[i]) for i in range(n)]
        adversary = crash_schedule(n, t, seed=seed, max_round=t + 1)
        result = Engine(procs, adversary).run()
        check_consensus(result, inputs)

    def test_staggered_worst_case(self):
        n, t = 50, 25
        inputs = random_bits(n, 9)
        procs = [FloodingConsensusProcess(i, n, t, inputs[i]) for i in range(n)]
        adversary = crash_schedule(n, t, seed=1, kind="staggered", max_round=t + 1)
        result = Engine(procs, adversary).run()
        check_consensus(result, inputs)

    def test_optimal_rounds_quadratic_messages(self):
        n, t = 60, 10
        inputs = random_bits(n, 1)
        procs = [FloodingConsensusProcess(i, n, t, inputs[i]) for i in range(n)]
        result = Engine(procs).run()
        assert result.rounds == t + 1
        assert result.messages == n * (n - 1) * (t + 1)


class TestNaiveGossip:
    @pytest.mark.parametrize("seed", range(3))
    def test_correct_under_crashes(self, seed):
        n, t = 60, 11
        rumors = [f"r{i}" for i in range(n)]
        procs = [NaiveGossipProcess(i, n, rumors[i]) for i in range(n)]
        adversary = crash_schedule(n, t, seed=seed, max_round=2)
        result = Engine(procs, adversary).run()
        check_gossip(result, rumors)

    def test_two_rounds_quadratic_messages(self):
        n = 50
        procs = [NaiveGossipProcess(i, n, i) for i in range(n)]
        result = Engine(procs).run()
        assert result.rounds == 2
        assert result.messages == 2 * n * (n - 1)


class TestNaiveCheckpointing:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["random", "early", "staggered"])
    def test_correct_under_crashes(self, seed, kind):
        n, t = 50, 9
        procs = [NaiveCheckpointingProcess(i, n, t) for i in range(n)]
        adversary = crash_schedule(n, t, seed=seed, kind=kind, max_round=t + 2)
        result = Engine(procs, adversary).run()
        check_checkpointing(result)

    def test_quadratic_message_cost(self):
        n, t = 50, 9
        procs = [NaiveCheckpointingProcess(i, n, t) for i in range(n)]
        result = Engine(procs).run()
        assert result.messages == n * (n - 1) * (t + 2)


class TestDSEverywhere:
    def test_correct_with_byzantine_silence(self):
        from repro.core.byzantine import SilentByzantine

        n, t = 30, 4
        params = ProtocolParams(n=n, t=t)
        service = SignatureService(n)
        byz = set(random.Random(0).sample(range(n), t))
        procs = [
            SilentByzantine(i, n)
            if i in byz
            else DSEverywhereProcess(i, params, (i % 2), service)
            for i in range(n)
        ]
        result = Engine(procs, byzantine=frozenset(byz)).run()
        honest = set(range(n)) - byz
        decisions = result.correct_decisions()
        assert set(decisions) == honest
        assert len(set(decisions.values())) == 1


class TestCrossComparison:
    def test_consensus_beats_flooding_on_messages(self):
        # The headline of Table 1: same O(t) time class, far fewer
        # messages than the quadratic baseline.
        n, t = 200, 30
        inputs = random_bits(n, 1)
        paper = run_consensus(inputs, t, algorithm="few", seed=1)
        procs = [FloodingConsensusProcess(i, n, t, inputs[i]) for i in range(n)]
        adversary = crash_schedule(n, t, seed=1, max_round=t + 1)
        baseline = Engine(procs, adversary).run()
        assert paper.messages < baseline.messages / 10

    def test_gossip_beats_naive_at_scale(self):
        n, t = 400, 40
        rumors = list(range(n))
        paper = run_gossip(rumors, t, crashes="random", seed=1)
        procs = [NaiveGossipProcess(i, n, rumors[i]) for i in range(n)]
        baseline = Engine(procs, crash_schedule(n, t, seed=1, max_round=2)).run()
        # Gossip's committee constant is large; the asymptotic gap shows
        # in per-node load: paper gossip concentrates on 5t little
        # nodes, the baseline loads everyone quadratically.
        assert paper.messages < 6 * baseline.messages
        assert baseline.messages == pytest.approx(2 * n * (n - 1), rel=0.1)

    def test_checkpointing_beats_naive_on_messages(self):
        n, t = 150, 15
        paper = run_checkpointing(n, t, crashes="random", seed=1)
        procs = [NaiveCheckpointingProcess(i, n, t) for i in range(n)]
        baseline = Engine(procs, crash_schedule(n, t, seed=1, max_round=t + 2)).run()
        assert paper.messages < baseline.messages
