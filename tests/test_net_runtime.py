"""Sim/net parity: the asyncio runtime vs the lock-step engine.

The acceptance bar for ``repro.net``: for the same seed and the same
``ScheduledCrashes`` schedule, the net runtime (in-memory transport)
must produce *identical* decisions, crash sets and message/bit totals
to ``Engine`` -- plus per-node and per-round tallies -- for consensus,
gossip and checkpointing (and the rest of the protocol families).  The
TCP transport must run the same executions over real loopback sockets.
"""

import asyncio
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    run_aea,
    run_ab_consensus,
    run_checkpointing,
    run_consensus,
    run_gossip,
    run_scv,
)
from repro.bench.workloads import byzantine_sample, input_vector, rumor_vector
from repro.net import (
    MemoryHub,
    NetRuntimeError,
    Session,
    TCPHub,
    open_mux,
    run_nodes,
    run_protocol_net,
)
from repro.scenarios import Scenario
from repro.sim import Engine, crash_schedule
from repro.sim.adaptive import CrashDecidersAdversary, StaggeredCommitteeAdversary
from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.process import Multicast, Process, ProtocolError

N = 100
SEED = 11


def assert_parity(net, sim):
    """Full observable-equality check between net and sim results."""
    assert net.metrics.summary() == sim.metrics.summary()
    assert net.metrics.per_node_messages == sim.metrics.per_node_messages
    assert net.metrics.per_node_bits == sim.metrics.per_node_bits
    assert net.metrics.per_round_messages == sim.metrics.per_round_messages
    assert net.decisions == sim.decisions
    assert net.crashed == sim.crashed
    assert net.completed == sim.completed


class TestScheduledCrashParity:
    """The issue's acceptance criterion: >= 3 protocols under a seeded
    ``ScheduledCrashes`` schedule, identical decisions / crashed sets /
    message and bit totals."""

    def _schedule(self, n, t, seed, horizon):
        adversary = crash_schedule(n, t, seed=seed, max_round=horizon)
        assert isinstance(adversary, ScheduledCrashes)
        return adversary

    def test_consensus(self):
        inputs = input_vector(N, "random", SEED)
        adversary = self._schedule(N, 15, SEED, 40)
        assert_parity(
            run_consensus(inputs, 15, crashes=adversary, backend="net"),
            run_consensus(inputs, 15, crashes=adversary),
        )

    def test_gossip(self):
        rumors = rumor_vector(N, SEED)
        adversary = self._schedule(N, 12, SEED, 30)
        assert_parity(
            run_gossip(rumors, 12, crashes=adversary, backend="net"),
            run_gossip(rumors, 12, crashes=adversary),
        )

    def test_checkpointing(self):
        adversary = self._schedule(N, 10, SEED, 30)
        assert_parity(
            run_checkpointing(N, 10, crashes=adversary, backend="net"),
            run_checkpointing(N, 10, crashes=adversary),
        )

    def test_consensus_many(self):
        inputs = input_vector(N, "random", SEED)
        adversary = self._schedule(N, 60, SEED, 80)
        assert_parity(
            run_consensus(
                inputs, 60, algorithm="many", crashes=adversary, backend="net"
            ),
            run_consensus(inputs, 60, algorithm="many", crashes=adversary),
        )

    def test_aea_and_scv(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_aea(inputs, 16, seed=SEED, backend="net"),
            run_aea(inputs, 16, seed=SEED),
        )
        assert_parity(
            run_scv(N, 9, range(70), 1, seed=SEED, backend="net"),
            run_scv(N, 9, range(70), 1, seed=SEED),
        )

    @pytest.mark.parametrize("kind", ["random", "early", "late", "staggered"])
    def test_crash_kinds(self, kind):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_consensus(inputs, 15, crashes=kind, seed=SEED, backend="net"),
            run_consensus(inputs, 15, crashes=kind, seed=SEED),
        )

    @pytest.mark.parametrize("behaviour", ["silent", "equivocate", "spam"])
    def test_byzantine(self, behaviour):
        inputs = input_vector(N, "random", SEED)
        byz = byzantine_sample(N, 4, SEED)
        net = run_ab_consensus(
            inputs, 4, byzantine=byz, behaviour=behaviour, backend="net"
        )
        sim = run_ab_consensus(inputs, 4, byzantine=byz, behaviour=behaviour)
        assert_parity(net, sim)
        if behaviour == "spam":
            assert net.metrics.faulty_messages > 0


class TestAdaptiveAdversaryParity:
    """Adaptive adversaries read live status through the coordinator's
    RuntimeView exactly as they read the live engine."""

    def test_staggered_committee(self):
        inputs = input_vector(60, "random", SEED)
        make = lambda: StaggeredCommitteeAdversary(committee_size=20, budget=8)
        assert_parity(
            run_consensus(inputs, 9, crashes=make(), backend="net"),
            run_consensus(inputs, 9, crashes=make()),
        )

    def test_crash_deciders(self):
        inputs = input_vector(60, "random", SEED)
        make = lambda: CrashDecidersAdversary(budget=6, per_round=2)
        assert_parity(
            run_consensus(inputs, 9, crashes=make(), backend="net"),
            run_consensus(inputs, 9, crashes=make()),
        )


class TestTCPTransport:
    """The same executions over real loopback sockets."""

    def test_consensus_over_tcp(self):
        inputs = input_vector(40, "random", SEED)
        assert_parity(
            run_consensus(inputs, 5, seed=SEED, backend="tcp"),
            run_consensus(inputs, 5, seed=SEED),
        )

    def test_gossip_over_tcp(self):
        rumors = rumor_vector(30, SEED)
        assert_parity(
            run_gossip(rumors, 4, seed=SEED, backend="tcp"),
            run_gossip(rumors, 4, seed=SEED),
        )

    def test_a_failed_dial_does_not_leave_the_hub_listening(self, monkeypatch):
        from repro.net import runtime

        started = []
        start = TCPHub.start

        async def recording_start(hub):
            await start(hub)
            started.append(hub)

        async def refused(*args, **kwargs):
            raise OSError("dial refused")

        monkeypatch.setattr(TCPHub, "start", recording_start)
        monkeypatch.setattr(runtime, "open_mux", refused)
        with pytest.raises(OSError, match="dial refused"):
            run_protocol_net([_Recorder(pid, 4) for pid in range(4)], transport="tcp")
        (hub,) = started
        assert not hub._server.is_serving()
        assert not hub._server.sockets


class _Recorder(Process):
    """Broadcasts a distinct payload every round and logs every
    delivery, so delivered-message *sets* can be compared across
    substrates."""

    def on_start(self):
        self.log = []

    def send(self, rnd):
        yield Multicast(tuple(range(self.n)), ("chunk", rnd, self.pid))
        yield ((self.pid + 1) % self.n, rnd)

    def receive(self, rnd, inbox):
        for src, payload in inbox:
            self.log.append((rnd, src, payload))
        if rnd >= 3:
            self.decide(len(self.log))
            self.halt()


def _delivered(processes):
    return {
        proc.pid: tuple(proc.log) for proc in processes if hasattr(proc, "log")
    }


class TestPartialSendProperty:
    """Satellite: property-based partial-send semantics.

    For ``CrashSpec.keep`` in ``{None, 0, k}`` the delivered-message
    sets must be identical across ``Engine(optimized=True)``,
    ``Engine(optimized=False)`` and the net runtime's in-memory
    transport -- not just the totals, but which message reached whom in
    which round, in which order.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        keep=st.one_of(st.none(), st.just(0), st.integers(1, 16)),
        crash_rounds=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 3)),
            min_size=0,
            max_size=4,
            unique_by=lambda pair: pair[1],
        ),
    )
    def test_delivered_sets_identical(self, keep, crash_rounds):
        n = 10
        schedule = {
            3 * idx: CrashSpec(round=rnd, keep=keep)
            for rnd, idx in crash_rounds
        }
        make = lambda: [_Recorder(pid, n) for pid in range(n)]
        runs = {}
        for label, runner in (
            ("optimized", lambda p: Engine(p, ScheduledCrashes(schedule)).run()),
            (
                "reference",
                lambda p: Engine(
                    p, ScheduledCrashes(schedule), optimized=False
                ).run(),
            ),
            ("net", lambda p: run_protocol_net(p, ScheduledCrashes(schedule))),
        ):
            procs = make()
            result = runner(procs)
            runs[label] = (result, _delivered(procs))
        ref_result, ref_log = runs["reference"]
        for label in ("optimized", "net"):
            result, log = runs[label]
            assert log == ref_log, f"{label} delivered different messages"
            assert result.metrics.summary() == ref_result.metrics.summary()
            assert result.decisions == ref_result.decisions
            assert result.crashed == ref_result.crashed


class TestRuntimeEdgeCases:
    def test_everyone_crashes(self):
        n = 8
        schedule = {pid: CrashSpec(round=1, keep=0) for pid in range(n)}
        make = lambda: [_Recorder(pid, n) for pid in range(n)]
        net = run_protocol_net(make(), ScheduledCrashes(schedule))
        sim = Engine(make(), ScheduledCrashes(schedule)).run()
        assert_parity(net, sim)
        assert net.completed

    def test_halt_in_on_start(self):
        class Quitter(Process):
            def on_start(self):
                self.decide("early")
                self.halt()

        make = lambda: [Quitter(pid, 4) for pid in range(4)]
        net = run_protocol_net(make())
        sim = Engine(make()).run()
        assert_parity(net, sim)
        assert net.decisions == {pid: "early" for pid in range(4)}

    def test_fast_forward_off(self):
        inputs = input_vector(50, "random", SEED)
        assert_parity(
            run_consensus(inputs, 7, seed=SEED, fast_forward=False, backend="net"),
            run_consensus(inputs, 7, seed=SEED, fast_forward=False),
        )

    def test_invalid_destination_raises(self):
        class Bad(Process):
            def send(self, rnd):
                return [(self.n + 3, 0)]

        with pytest.raises(ProtocolError):
            run_protocol_net([Bad(0, 1)])

    def test_max_rounds_marks_incomplete(self):
        class Forever(Process):
            def send(self, rnd):
                return [((self.pid + 1) % self.n, rnd)]

        make = lambda: [Forever(pid, 3) for pid in range(3)]
        net = run_protocol_net(make(), max_rounds=5)
        sim = Engine(make(), max_rounds=5).run()
        assert_parity(net, sim)
        assert not net.completed
        assert net.rounds == 5

    def test_result_carries_local_processes(self):
        procs = [_Recorder(pid, 6) for pid in range(6)]
        result = run_protocol_net(procs)
        assert list(result.processes) == procs
        assert result.correct_pids() == list(range(6))

    def test_halt_inside_send(self):
        # A process that halts in its send() hook must not strand its
        # node task: the engine drops it from the receive phase onwards
        # and the run still terminates (regression: this deadlocked the
        # runtime's final gather).
        class HaltsInSend(Process):
            def send(self, rnd):
                if rnd == 1 and self.pid == 0:
                    self.decide("mid-send")
                    self.halt()
                    return ()
                return [((self.pid + 1) % self.n, rnd)]

            def receive(self, rnd, inbox):
                if rnd >= 3:
                    self.decide("end")
                    self.halt()

        make = lambda: [HaltsInSend(pid, 5) for pid in range(5)]
        net = run_protocol_net(make())
        sim = Engine(make()).run()
        assert_parity(net, sim)
        assert net.completed
        assert net.decisions[0] == "mid-send"

    def test_coordinator_result_supports_property_checks(self):
        # A distributed run's result (no local Process objects) must
        # still answer correct_pids()/check_consensus meaningfully: the
        # coordinator substitutes its NodeStatus records.
        from repro import check_consensus
        from repro.api import build_consensus_processes
        from repro.sim.adversary import crash_schedule

        inputs = input_vector(20, "random", SEED)
        procs, horizon = build_consensus_processes(inputs, 3)
        adversary = crash_schedule(20, 3, seed=SEED, max_round=horizon)

        async def drive():
            hub = MemoryHub()
            endpoints = [hub.endpoint(addr) for addr in range(21)]
            sync = Session(20, adversary)
            tasks = [
                asyncio.ensure_future(run_nodes([p], endpoints[p.pid], 20))
                for p in procs
            ]
            result = await sync.run(endpoints[20])
            await asyncio.gather(*tasks)
            return result

        result = asyncio.run(drive())
        assert sorted(p.pid for p in result.processes) == list(range(20))
        assert set(result.correct_pids()) == set(range(20)) - result.crashed
        check_consensus(result, inputs)  # termination clause is non-vacuous


class TestBarrierTimeout:
    """The session's watchdog, end to end: a node that never reports
    fails the run within ``[timeout, 1.5 * timeout]`` with an error that
    names the phase, the round and exactly the missing pid."""

    TIMEOUT = 0.6
    N = 6

    async def _hosted(self, transport, hosted, make_proc, run):
        """A Session over ``transport`` with one host task per item of
        ``hosted`` -- a pid, or a list of pids sharing a host -- and none
        for the other pids; ``run(session, coordinator_endpoint)`` is the
        body."""
        hub = mux = MemoryHub()
        if transport == "tcp":
            hub = TCPHub()
            await hub.start()
            mux = await open_mux("127.0.0.1", hub.port)
        tasks = []
        try:
            shards = [[pid] if isinstance(pid, int) else pid for pid in hosted]
            tasks.extend(
                asyncio.ensure_future(
                    run_nodes(
                        [make_proc(pid, tasks) for pid in shard],
                        mux.endpoint(min(shard)),
                        self.N,
                    )
                )
                for shard in shards
            )
            session = Session(self.N, timeout=self.TIMEOUT)
            return await run(session, mux.endpoint(self.N))
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if transport == "tcp":
                await mux.close()
                await hub.close()

    async def _timed_failure(self, session, endpoint):
        started = time.monotonic()
        with pytest.raises(NetRuntimeError) as excinfo:
            await session.run(endpoint)
        elapsed = time.monotonic() - started
        assert self.TIMEOUT <= elapsed <= 1.5 * self.TIMEOUT
        return str(excinfo.value)

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_never_hosted_node(self, transport):
        hosted = [pid for pid in range(self.N) if pid != 4]

        async def run(session, endpoint):
            # The five hosted nodes' READY reports are queued before the
            # coordinator first looks: the drain path, then the wait.
            await asyncio.sleep(0.05)
            return await self._timed_failure(session, endpoint)

        message = asyncio.run(
            self._hosted(
                transport, hosted, lambda pid, _tasks: _Recorder(pid, self.N), run
            )
        )
        assert f"timed out after {self.TIMEOUT}s" in message
        assert "ready phase, missing pids [4]" in message
        assert "pid 4: no reports received yet" in message

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_node_killed_between_sent_and_done(self, transport):
        n = self.N

        class Doomed(_Recorder):
            """Pid 2 has its own task cancelled while it runs round 1's
            send hook: the cancellation lands at the task's next
            suspension, after SENT went out and while it waits for its
            peers' bundles."""

            def __init__(self, pid, tasks):
                super().__init__(pid, n)
                self.tasks = tasks

            def send(self, rnd):
                if rnd == 1 and self.pid == 2:
                    asyncio.get_running_loop().call_soon(self.tasks[2].cancel)
                return super().send(rnd)

        message = asyncio.run(
            self._hosted(transport, range(n), Doomed, self._timed_failure)
        )
        assert "receive phase of round 1, missing pids [2]" in message
        assert "pid 2: last completed send of round 1" in message

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_host_killed_before_shipping_is_named_alone(self, transport):
        # Three hosts of two pids.  The host of pids 2 and 3 is cancelled
        # while pid 2 receives round 0; the cancellation lands as it
        # waits for START(1), so it never ships round 1.  The other two
        # hosts send SENT and then block on its last bundle: the
        # timeout must name the dead host's pids, not theirs.
        n = self.N

        class Doomed(_Recorder):
            def __init__(self, pid, tasks):
                super().__init__(pid, n)
                self.tasks = tasks

            def receive(self, rnd, inbox):
                if rnd == 0 and self.pid == 2:
                    asyncio.get_running_loop().call_soon(self.tasks[1].cancel)
                super().receive(rnd, inbox)

        message = asyncio.run(
            self._hosted(
                transport, [[0, 1], [2, 3], [4, 5]], Doomed, self._timed_failure
            )
        )
        assert "send phase of round 1, missing pids [2, 3]" in message
        for pid in (2, 3):
            assert f"pid {pid}: last completed deliver of round 0" in message
        for pid in (0, 1, 4, 5):
            assert f"pid {pid}:" not in message

    def test_silent_host_lists_all_its_pids(self):
        # Two 3-pid hosts, one never started: the coordinator cannot know
        # the silent host's address, but it knows which pids are missing.
        async def main():
            hub = MemoryHub()
            host = asyncio.ensure_future(
                run_nodes(
                    [_Recorder(pid, self.N) for pid in range(3)],
                    hub.endpoint(0),
                    self.N,
                )
            )
            try:
                session = Session(self.N, timeout=self.TIMEOUT)
                return await self._timed_failure(session, hub.endpoint(self.N))
            finally:
                host.cancel()
                await asyncio.gather(host, return_exceptions=True)

        message = asyncio.run(main())
        assert "ready phase, missing pids [3, 4, 5]" in message
        for pid in (3, 4, 5):
            assert f"pid {pid}: no reports received yet" in message

    def test_late_host_is_stopped_after_a_ready_timeout(self):
        # The silent host attaches after the session gave up: the STOP
        # buffered at its address ends it instead of leaving it in recv().
        async def main():
            hub = MemoryHub()
            early = asyncio.ensure_future(
                run_nodes(
                    [_Recorder(pid, self.N) for pid in range(3)],
                    hub.endpoint(0),
                    self.N,
                )
            )
            session = Session(self.N, timeout=self.TIMEOUT)
            await self._timed_failure(session, hub.endpoint(self.N))
            late = run_nodes(
                [_Recorder(pid, self.N) for pid in range(3, 6)],
                hub.endpoint(3),
                self.N,
            )
            await asyncio.wait_for(asyncio.gather(early, late), 5.0)

        asyncio.run(main())

    def test_outer_cancel_is_not_a_timeout(self):
        async def run(session, endpoint):
            task = asyncio.ensure_future(session.run(endpoint))
            await asyncio.sleep(0.05)  # blocked in the ready barrier by now
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(
            self._hosted("memory", [], lambda pid, _tasks: _Recorder(pid, self.N), run)
        )


class TestTurnBudget:
    """A barrier wait is one suspension and a run is one host task:
    event-loop turns grow with the rounds executed, not with the reports
    collected, and Tasks do not grow with ``n`` at all.  Counts, not
    times, so the bound holds on any machine (the per-frame ``wait_for``
    and per-node tasks this replaced took 100-450 turns per round and
    ~n Tasks per run)."""

    CASES = {
        "consensus": (
            {"name": "consensus", "inputs": [0, 1] * 20, "t": 5},
            {"crashes": "random", "seed": 3},
        ),
        "gossip-one-crash": (
            {"name": "gossip", "rumors": list(range(24)), "t": 3},
            {"crashes": ScheduledCrashes({5: CrashSpec(round=2, keep=1)})},
        ),
        "flooding-crash-rejoin": (
            {"name": "flooding", "inputs": [pid % 2 for pid in range(16)], "t": 4},
            {"scenario": Scenario(n=16, crashes=[(3, 1, 0)], churn=[(7, 1, 3, None)])},
        ),
    }

    def _counts(self, case, backend, monkeypatch):
        from asyncio.base_events import BaseEventLoop

        from repro.api import run_recipe

        protocol, execution = self.CASES[case]
        counts = {"turns": 0, "tasks": 0}
        run_once, create_task = BaseEventLoop._run_once, BaseEventLoop.create_task

        def counting_run_once(loop):
            counts["turns"] += 1
            return run_once(loop)

        def counting_create_task(loop, *args, **kwargs):
            counts["tasks"] += 1
            return create_task(loop, *args, **kwargs)

        monkeypatch.setattr(BaseEventLoop, "_run_once", counting_run_once)
        monkeypatch.setattr(BaseEventLoop, "create_task", counting_create_task)
        net = run_recipe(protocol, backend=backend, **execution)
        monkeypatch.undo()

        assert_parity(net, run_recipe(protocol, **execution))
        return counts["turns"], counts["tasks"], net.rounds

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_turns_and_tasks_are_bounded(self, case, monkeypatch):
        # One barrier a round: gossip-one-crash takes 172 turns in 80
        # rounds (332 with a second coordinator round trip a round).
        turns, tasks, rounds = self._counts(case, "net", monkeypatch)
        assert tasks <= 8
        assert turns <= 3 * rounds + 40

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_socket_hop_is_a_turn_not_a_task(self, case, monkeypatch):
        # Over the hub socket a frame is four hops -- sender, mux
        # write, hub parse + route + write, mux parse -- and a one-host
        # round is START and DONE: gossip-one-crash takes 673 turns in
        # 80 rounds (925 with its own DATA and a SENT through the hub,
        # 1,313 with DELIVER as well); reader, writer and pump tasks
        # took 12 Tasks and ~28 turns a round.
        turns, tasks, rounds = self._counts(case, "tcp", monkeypatch)
        assert tasks <= 8
        assert turns <= 9 * rounds + 60
