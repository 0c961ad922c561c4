"""The scenario subsystem: omission / partition / churn fault models.

Acceptance bar: every extended fault class produces *identical*
metrics, decisions and crash sets across ``Engine(optimized=True)``,
``Engine(optimized=False)`` and the net runtime — extending the
crash-only pinning discipline of ``test_engine_parity.py`` and
``test_net_runtime.py`` — plus exact low-level delivery semantics
checked on a logging toy protocol.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import (
    PropertyViolation,
    Scenario,
    run_consensus,
    run_gossip,
    scenario_schedule,
)
from repro.bench.workloads import input_vector, rumor_vector
from repro.net import run_protocol_net
from repro.scenarios import (
    ChurnSpec,
    CrashEvent,
    OmissionSpec,
    PartitionSpec,
    ScenarioAdversary,
)
from repro.sim import Engine
from repro.sim.process import Multicast, Process
from repro.trace import replay_trace
from tests.conftest import drawn_scenario, scenario_draws


class Chatter(Process):
    """Broadcasts a distinct payload every round and logs deliveries,
    so delivered-message *sets* can be compared across substrates."""

    ROUNDS = 8

    def on_start(self):
        self.log = []
        self.starts = getattr(self, "starts", 0) + 1

    def send(self, rnd):
        yield Multicast(tuple(range(self.n)), ("r", rnd, self.pid))

    def receive(self, rnd, inbox):
        for src, payload in inbox:
            self.log.append((rnd, src, payload))
        if rnd >= self.ROUNDS:
            self.decide(len(self.log))
            self.halt()


def run_all_backends(scenario, n=10):
    """Execute Chatter under ``scenario`` on the three substrates."""
    runs = {}
    for label, runner in (
        ("opt", lambda p, a: Engine(p, a).run()),
        ("ref", lambda p, a: Engine(p, a, optimized=False).run()),
        ("net", lambda p, a: run_protocol_net(p, a)),
    ):
        procs = [Chatter(pid, n) for pid in range(n)]
        result = runner(procs, scenario.adversary())
        logs = {p.pid: tuple(p.log) for p in procs if hasattr(p, "log")}
        runs[label] = (result, logs)
    return runs


def assert_backend_parity(runs):
    from repro.check.oracles import check_parity

    ref_result, ref_logs = runs["ref"]
    for label in ("opt", "net"):
        result, logs = runs[label]
        assert logs == ref_logs, f"{label} delivered different messages"
        # The shared parity oracle (also used by repro.check and the
        # bench certification rows) covers the metric/decision surface.
        check_parity(result, ref_result, label, "ref")
    return ref_result, ref_logs


class TestScenarioData:
    def test_json_round_trip(self):
        scenario = Scenario(
            n=8,
            name="demo",
            crashes=[CrashEvent(1, 2, 1)],
            omissions=[OmissionSpec(0, 3, (1, 2))],
            partitions=[PartitionSpec(2, 5, ((0, 1, 2),))],
            churn=[ChurnSpec(4, 1, 3, 0)],
        )
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.to_dict() == scenario.to_dict()

    def test_normalises_iterables(self):
        scenario = Scenario(n=4, omissions=[(0, 1, [2, 3])])
        assert scenario.omissions == (OmissionSpec(0, 1, (2, 3)),)

    def test_save_load(self, tmp_path):
        scenario = scenario_schedule(
            12, seed=3, crashes=2, omission_links=3, churn_nodes=1
        )
        path = tmp_path / "scenario.json"
        scenario.save(path)
        assert Scenario.load(path) == scenario

    @pytest.mark.parametrize(
        "bad",
        [
            Scenario(n=4, crashes=[CrashEvent(9, 0)]),
            Scenario(n=4, crashes=[CrashEvent(1, 0), CrashEvent(1, 2)]),
            Scenario(n=4, churn=[ChurnSpec(1, 5, 5)]),
            Scenario(n=4, churn=[ChurnSpec(1, 1, 3)], crashes=[CrashEvent(1, 0)]),
            Scenario(n=4, omissions=[OmissionSpec(2, 2, (0,))]),
            Scenario(n=4, partitions=[PartitionSpec(3, 3, ((0,),))]),
            Scenario(n=4, partitions=[PartitionSpec(0, 2, ((0, 1), (1, 2)))]),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            bad.validate()

    def test_schedule_deterministic_and_isolated(self):
        import random

        random.seed(123)
        state = random.getstate()
        a = scenario_schedule(
            30, seed=9, crashes=3, omission_links=5, partition_windows=2,
            churn_nodes=2,
        )
        assert random.getstate() == state, "must not touch global random"
        b = scenario_schedule(
            30, seed=9, crashes=3, omission_links=5, partition_windows=2,
            churn_nodes=2,
        )
        assert a == b
        c = scenario_schedule(30, seed=10, crashes=3, omission_links=5)
        assert a != c
        a.validate()

    def test_horizon_and_budget(self):
        scenario = Scenario(
            n=8,
            crashes=[CrashEvent(0, 4)],
            churn=[ChurnSpec(1, 2, 9)],
            partitions=[PartitionSpec(0, 6, ((0, 1),))],
        )
        assert scenario.fault_budget() == 2
        assert scenario.horizon() == 10


class TestOmissionSemantics:
    def test_blocked_link_drops_exactly_those_messages(self):
        n = 6
        scenario = Scenario(n=n, omissions=[OmissionSpec(0, 3, (1, 2))])
        runs = run_all_backends(scenario, n)
        result, logs = assert_backend_parity(runs)
        # Rounds 1 and 2: node 3 must not log a message from 0.
        received = [(rnd, src) for rnd, src, _ in logs[3]]
        assert (0, 0) in received
        assert (1, 0) not in received and (2, 0) not in received
        assert (3, 0) in received
        # The reverse direction and other destinations are unaffected.
        assert (1, 3) in [(rnd, src) for rnd, src, _ in logs[0]]
        assert (1, 0) in [(rnd, src) for rnd, src, _ in logs[2]]
        assert result.metrics.dropped_messages == 2

    def test_dropped_messages_excluded_from_totals(self):
        n = 5
        clean = run_all_backends(Scenario(n=n), n)["ref"][0]
        faulty = run_all_backends(
            Scenario(n=n, omissions=[OmissionSpec(1, 2, (0, 1, 2, 3))]), n
        )["ref"][0]
        assert (
            faulty.metrics.messages + faulty.metrics.dropped_messages
            == clean.metrics.messages
        )


class TestPartitionSemantics:
    def test_cross_group_messages_drop_within_window(self):
        n = 6
        scenario = Scenario(
            n=n, partitions=[PartitionSpec(2, 4, ((0, 1, 2),))]
        )
        runs = run_all_backends(scenario, n)
        result, logs = assert_backend_parity(runs)
        for rnd, src, _ in logs[0]:
            if rnd in (2, 3):
                assert src in (0, 1, 2), "cross-group delivery inside window"
        for rnd, src, _ in logs[5]:
            if rnd in (2, 3):
                assert src in (3, 4, 5)
        # Outside the window the network is whole again.
        assert {src for rnd, src, _ in logs[0] if rnd == 4} == set(range(n))
        # 2 rounds x 2 groups x 3 nodes x 3 cross destinations.
        assert result.metrics.dropped_messages == 36

    def test_implicit_remainder_group(self):
        adversary = Scenario(
            n=4, partitions=[PartitionSpec(0, 1, ((0, 1),))]
        ).adversary()
        blocked = adversary.blocked_links(0)
        assert blocked[0] == frozenset({2, 3})
        assert blocked[3] == frozenset({0, 1})
        assert adversary.blocked_links(1) is None

    def test_overlapping_partitions_compose(self):
        adversary = Scenario(
            n=4,
            partitions=[
                PartitionSpec(0, 2, ((0, 1),)),
                PartitionSpec(1, 3, ((0, 2),)),
            ],
        ).adversary()
        # Round 1: both splits active; 0 may talk to nobody.
        assert adversary.blocked_links(1)[0] == frozenset({1, 2, 3})


class TestChurnSemantics:
    def test_rejoin_resets_state(self):
        n = 6
        scenario = Scenario(n=n, churn=[ChurnSpec(2, 1, 4, 0)])
        runs = run_all_backends(scenario, n)
        result, logs = assert_backend_parity(runs)
        # Node 2 is operational at the end (it rejoined).
        assert result.crashed == set()
        assert 2 in result.decisions
        # Its log restarts at the rejoin round: nothing before round 4.
        assert min(rnd for rnd, _, _ in logs[2]) == 4
        # The reset is total: even the ``starts`` counter on_start
        # accumulates is wiped with the rest of the state, so the
        # rejoined node is indistinguishable from a fresh one.
        for label in ("opt", "ref", "net"):
            procs = runs[label][0].processes
            assert procs[2].starts == 1

    def test_rejoined_process_shares_the_overlay(self):
        # The rejoin restores a deep copy of the process dict, but an
        # overlay is immutable and shared by identity: the copy must
        # hand back the same Graph, not walk it once per churn node.
        n = 30
        scenario = Scenario(n=n, churn=[ChurnSpec(2, 1, 4, 0)])
        for backend in ("sim", "net"):
            result = run_consensus(
                input_vector(n, "random", 1), 3, crashes=scenario,
                backend=backend,
            )
            assert 2 in result.decisions and result.crashed == set()
            rejoined, neighbour = result.processes[2], result.processes[3]
            assert rejoined._spread is neighbour._spread, backend
            assert rejoined.aea.graph is neighbour.aea.graph, backend

    def test_on_start_reruns_at_rejoin(self):
        # A class-level (non-state) counter survives the reset and
        # proves on_start genuinely re-ran for the churn node.
        calls = []

        class Counting(Chatter):
            def on_start(self):
                calls.append(self.pid)
                super().on_start()

        n = 5
        procs = [Counting(pid, n) for pid in range(n)]
        scenario = Scenario(n=n, churn=[ChurnSpec(1, 2, 4, 0)])
        Engine(procs, scenario.adversary()).run()
        assert sorted(calls) == sorted(list(range(n)) + [1])

    def test_down_period_messages_lost(self):
        n = 4
        scenario = Scenario(n=n, churn=[ChurnSpec(0, 2, 5, None)])
        runs = run_all_backends(scenario, n)
        _, logs = assert_backend_parity(runs)
        # The reset wipes the pre-crash log and the downtime messages
        # are lost, so the node's history is exactly the rounds from
        # its rejoin onwards.
        rounds_received = {rnd for rnd, _, _ in logs[0]}
        assert rounds_received == {5, 6, 7, 8}

    def test_pending_rejoin_outlives_other_halts(self):
        # Everyone else halts before the rejoin round: the run must NOT
        # end with the rejoin silently skipped -- it idles (fast-forward
        # jumps straight to the rejoin) until the node is reinstated,
        # identically on every backend.
        n = 4
        scenario = Scenario(n=n, churn=[ChurnSpec(1, 2, 5_000, 0)])
        runs = run_all_backends(scenario, n)
        result, _ = assert_backend_parity(runs)
        assert result.completed
        assert result.crashed == set()            # the node did come back
        assert 1 in result.decisions              # ... and ran to completion
        assert result.metrics.rounds == 5_001     # rejoin round + its last round

    def test_unreachable_rejoin_exhausts_safety_bound(self):
        # A rejoin scheduled at or beyond max_rounds can never fire: the
        # run exhausts the safety bound and reports completed=False
        # instead of pretending the scenario ran to quiescence.
        n = 4
        scenario = Scenario(n=n, churn=[ChurnSpec(1, 2, 500, 0)])
        results = {}
        for label, runner in (
            ("opt", lambda p, a: Engine(p, a, max_rounds=100).run()),
            ("ref", lambda p, a: Engine(p, a, max_rounds=100, optimized=False).run()),
            ("net", lambda p, a: run_protocol_net(p, a, max_rounds=100)),
        ):
            procs = [Chatter(pid, n) for pid in range(n)]
            results[label] = runner(procs, scenario.adversary())
        for label, result in results.items():
            assert not result.completed, label
            assert result.crashed == {1}, label
            assert result.metrics.rounds == 100, label
        assert (
            results["opt"].metrics.summary()
            == results["ref"].metrics.summary()
            == results["net"].metrics.summary()
        )

    def test_fast_forward_does_not_skip_rejoin(self):
        class Sleeper(Chatter):
            def send(self, rnd):
                if rnd in (0, 20):
                    yield Multicast(tuple(range(self.n)), ("r", rnd, self.pid))

            def receive(self, rnd, inbox):
                for src, payload in inbox:
                    self.log.append((rnd, src, payload))
                if rnd >= 20:
                    self.decide(len(self.log))
                    self.halt()

            def next_activity(self, rnd):
                return 20 if rnd < 20 else rnd + 1

        scenario = Scenario(n=4, churn=[ChurnSpec(0, 1, 10, 0)])
        results = {}
        for label, make in (
            ("opt", lambda p, a: Engine(p, a)),
            ("ref", lambda p, a: Engine(p, a, optimized=False)),
            ("noff", lambda p, a: Engine(p, a, fast_forward=False)),
        ):
            procs = [Sleeper(pid, 4) for pid in range(4)]
            results[label] = make(procs, scenario.adversary()).run()
        assert (
            results["opt"].metrics.summary()
            == results["ref"].metrics.summary()
            == results["noff"].metrics.summary()
        )
        assert results["opt"].crashed == set()


class TestProtocolScenarios:
    """The paper's protocols under extended fault classes: exact
    three-way backend parity for seeded random scenarios."""

    @pytest.mark.parametrize("model", ["omission", "partition", "churn", "mixed"])
    def test_consensus_parity(self, model):
        n, t, seed = 48, 7, 5
        kwargs = {
            "omission": dict(omission_links=3 * n),
            "partition": dict(partition_windows=2),
            "churn": dict(churn_nodes=3),
            "mixed": dict(
                crashes=2, omission_links=n, partition_windows=1, churn_nodes=2
            ),
        }[model]
        scenario = scenario_schedule(n, seed=seed, max_round=12, **kwargs)
        inputs = input_vector(n, "random", seed)
        opt = run_consensus(inputs, t, scenario=scenario)
        ref = run_consensus(inputs, t, scenario=scenario, optimized=False)
        net = run_consensus(inputs, t, scenario=scenario, backend="net")
        assert opt.metrics.summary() == ref.metrics.summary() == net.metrics.summary()
        assert opt.decisions == ref.decisions == net.decisions
        assert opt.crashed == ref.crashed == net.crashed

    def test_gossip_partition_parity_and_degradation(self):
        n, t, seed = 40, 5, 7
        scenario = scenario_schedule(n, seed=seed, partition_windows=2, max_round=12)
        rumors = rumor_vector(n, seed)
        opt = run_gossip(rumors, t, scenario=scenario)
        ref = run_gossip(rumors, t, scenario=scenario, optimized=False)
        net = run_gossip(rumors, t, scenario=scenario, backend="net")
        assert opt.metrics.summary() == ref.metrics.summary() == net.metrics.summary()
        assert opt.decisions == ref.decisions == net.decisions
        assert opt.metrics.dropped_messages > 0

    def test_scenario_as_crashes_argument(self):
        scenario = Scenario(n=20, crashes=[CrashEvent(3, 1, 0)])
        inputs = input_vector(20, "random", 1)
        via_crashes = run_consensus(inputs, 3, crashes=scenario)
        via_scenario = run_consensus(inputs, 3, scenario=scenario, crashes=None)
        assert via_crashes.metrics.summary() == via_scenario.metrics.summary()
        assert via_crashes.crashed == {3}

    def test_scenario_n_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_consensus([0, 1] * 10, 3, scenario=Scenario(n=5))

    def test_byzantine_churn_rejected(self):
        from repro.sim.process import ProtocolError

        scenario = Scenario(n=6, churn=[ChurnSpec(0, 1, 3)])
        procs = [Chatter(pid, 6) for pid in range(6)]
        with pytest.raises(ProtocolError):
            Engine(procs, scenario.adversary(), byzantine=frozenset({0})).run()

    def test_scenario_safety_can_break_outside_model(self):
        # A permanent split vote is the classical partition
        # impossibility: the run stays deterministic and parity-exact,
        # but agreement fails -- which is the measurement, not a bug.
        n, t = 60, 9
        inputs = [0] * (n // 2) + [1] * (n // 2)
        scenario = Scenario(
            n=n, partitions=[PartitionSpec(0, 10_000, (tuple(range(n // 2)),))]
        )
        result = run_consensus(inputs, t, scenario=scenario, crashes=None)
        with pytest.raises(PropertyViolation):
            from repro import check_consensus

            check_consensus(result, inputs)
        assert set(result.correct_decisions().values()) == {0, 1}


def _tcp_scenario_worker(port, pids, inputs, t, churn_pids):
    import asyncio

    from repro.api import build_consensus_processes
    from repro.net import host_nodes_tcp

    procs, _ = build_consensus_processes(inputs, t)
    shard = {pid: procs[pid] for pid in pids}
    asyncio.run(
        host_nodes_tcp(shard, "127.0.0.1", port, churn_pids=churn_pids)
    )


class TestDistributedTCP:
    def test_churn_and_omission_across_worker_processes(self):
        # The churn node task must survive its crash leg inside a
        # remote worker OS process and rejoin over real sockets; the
        # run must match the lock-step engine exactly.
        import asyncio
        import multiprocessing

        from repro.net import Session, TCPHub, drive_session

        n, t = 20, 3
        inputs = input_vector(n, "random", 11)
        scenario = Scenario(
            n=n,
            churn=[ChurnSpec(2, 1, 5, 0)],
            omissions=[OmissionSpec(0, 9, (0, 1, 2))],
        )
        churn_pids = scenario.adversary().rejoin_pids()

        async def drive():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            pids = list(range(n))
            workers = [
                multiprocessing.Process(
                    target=_tcp_scenario_worker,
                    args=(hub.port, shard, inputs, t, churn_pids),
                )
                for shard in (pids[: n // 2], pids[n // 2 :])
            ]
            for proc in workers:
                proc.start()
            try:
                session = Session(n, scenario.adversary())
                return await drive_session(session, hub, ())
            finally:
                await hub.close()
                for proc in workers:
                    proc.join(timeout=30)

        distributed = asyncio.run(drive())
        sim = run_consensus(inputs, t, scenario=scenario)
        assert distributed.metrics.summary() == sim.metrics.summary()
        assert distributed.decisions == sim.decisions
        assert distributed.crashed == sim.crashed


class TestAdversarySurface:
    def test_blocked_links_memo_and_none_fast_path(self):
        scenario = Scenario(n=4, omissions=[OmissionSpec(0, 1, (3,))])
        adversary = scenario.adversary()
        assert adversary.blocked_links(0) is None
        first = adversary.blocked_links(3)
        assert adversary.blocked_links(3) is first
        assert first == {0: frozenset({1})}

    def test_next_event_round_covers_rejoins(self):
        adversary = Scenario(n=4, churn=[ChurnSpec(1, 2, 7)]).adversary()
        assert adversary.next_event_round(0) == 2
        assert adversary.next_event_round(2) == 7
        assert adversary.next_event_round(7) is None
        assert adversary.next_rejoin(1, 2) == 7
        assert adversary.next_rejoin(1, 7) is None
        assert adversary.rejoin_pids() == frozenset({1})

    def test_total_budget(self):
        assert ScenarioAdversary(
            Scenario(n=6, crashes=[CrashEvent(0, 1)], churn=[ChurnSpec(1, 0, 2)])
        ).total_budget() == 2


def _link_by_link(scenario, rnd):
    """``blocked_links(rnd)`` recomputed one directed link at a time."""

    def side(spec, pid):
        return next((i for i, group in enumerate(spec.groups) if pid in group), -1)

    mask = {}
    for src in range(scenario.n):
        cut = frozenset(
            dst
            for dst in range(scenario.n)
            if dst != src
            and (
                any(
                    (spec.src, spec.dst) == (src, dst) and rnd in spec.rounds
                    for spec in scenario.omissions
                )
                or any(
                    spec.start <= rnd < spec.stop
                    and side(spec, src) != side(spec, dst)
                    for spec in scenario.partitions
                )
            )
        )
        if cut:
            mask[src] = cut
    return mask


class TestLinkMask:
    """The mask is built group by group (one shared ``frozenset`` per
    partition group); it must stay value-equal to the quadratic
    definition."""

    @staticmethod
    def _overlapping(base):
        """``base`` plus two overlapping partitions (the second with an
        implicit remainder group) and an omission on a partitioned src."""
        n = base.n
        return Scenario(
            n=n,
            crashes=base.crashes,
            churn=base.churn,
            omissions=base.omissions + (OmissionSpec(0, n - 1, (2, 3, 4)),),
            partitions=base.partitions + (
                PartitionSpec(2, 6, (tuple(range(n // 2)), tuple(range(n // 2, n)))),
                PartitionSpec(4, 8, (tuple(range(0, n, 3)), (1,))),
            ),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        draw=scenario_draws(max_round=(6, 30), omission_links=12, churn_nodes=2),
        n=st.integers(4, 24),
    )
    def test_mask_equals_link_by_link_recomputation(self, draw, n):
        scenario = self._overlapping(drawn_scenario(draw, n, n // 4))
        adversary = scenario.adversary()
        for rnd in range(scenario.horizon() + 2):
            assert (adversary.blocked_links(rnd) or {}) == _link_by_link(
                scenario, rnd
            ), rnd

    def test_lone_partition_shares_one_mask_per_group(self):
        # The O(n) property: n masks, two frozenset objects.
        n = 40
        left, right = tuple(range(0, n, 2)), tuple(range(1, n, 2))
        adversary = Scenario(
            n=n, partitions=[PartitionSpec(1, 3, (left,))]
        ).adversary()
        mask = adversary.blocked_links(1)
        assert mask == _link_by_link(adversary.scenario, 1) and len(mask) == n
        for group, other in ((left, right), (right, left)):
            assert mask[group[0]] == frozenset(other)
            assert all(mask[pid] is mask[group[0]] for pid in group)

    def test_record_replay_of_overlapping_masks(self):
        n, t = 24, 3
        scenario = self._overlapping(
            scenario_schedule(n, seed=5, crashes=2, omission_links=8,
                              partition_windows=1, churn_nodes=1, max_round=12)
        )
        inputs = input_vector(n, "random", 5)
        recorded = run_consensus(
            inputs, t, scenario=scenario, seed=5, record_trace=True
        )
        assert recorded.metrics.dropped_messages > 0
        for optimized in (True, False):
            replay_trace(recorded.trace, backend="sim", optimized=optimized)
