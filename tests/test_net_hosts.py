"""A host is one task and one endpoint: the walls around ``run_nodes``.

* **Partition invariance** (hypothesis property): however the pids are
  dealt to hosts -- one shard or four, memory hub or one ``TCPMux`` per
  host -- a run is ``check_parity``-identical to ``backend="sim"`` and
  calls each pid's hooks exactly as often, with fast-forward on or off,
  for every family of ``repro.families.REGISTRY`` under the fuzzer's
  random crash/omission/partition/churn scenarios, and its trace
  replays.
* **Frame budget**, counted at ``MemoryHub._route`` (every frame of both
  hubs passes through it): a round is one barrier and costs three
  control frames per host and one data frame per ordered pair of
  distinct hosts; a host's mail for its own pids never reaches the hub,
  and a host alone in a round reports ``START`` and ``DONE`` only.
* **Bundle cap** and the frame-size guard behind it.
* **Sharing contract**: co-hosted receivers of one send group get the
  same decoded object (as ``Engine`` hands every receiver the sender's
  object); receivers on different hosts, and the sender, never share one.
"""

import asyncio
import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import prepare_recipe, run_recipe
from repro.check import check_parity
from repro.check.driver import FAMILIES, sample_config
from repro.net import (
    FrameTooLargeError,
    MemoryHub,
    NetRuntimeError,
    Session,
    TCPHub,
    open_mux,
)
from repro.net import runtime as runtime_mod
from repro.net.codec import decode
from repro.net.runtime import drive_session, run_nodes
from repro.net.transport import TCPMux
from repro.scenarios import OmissionSpec, Scenario
from repro.sim import Engine
from repro.sim.process import Multicast, Process
from repro.trace import TraceChecker, TraceRecorder, replay_trace
from tests.conftest import ScriptedProcess


def deal(n, hosts, seed):
    """A random partition of ``range(n)`` into at most ``hosts`` shards."""
    rng = random.Random(seed)
    shards = [[] for _ in range(hosts)]
    for pid in range(n):
        shards[rng.randrange(hosts)].append(pid)
    return [shard for shard in shards if shard]


async def drive(
    prepared, shards, transport="memory", recorder=None, on_round=None, churn_pids=None
):
    """One ``Session`` and one ``run_nodes`` host per shard, each host on
    its own hub connection when ``transport`` is ``"tcp"``."""
    n = prepared.n
    if churn_pids is None:
        churn_pids = prepared.adversary.rejoin_pids()
    hub = MemoryHub()
    muxes = [hub] * (len(shards) + 1)
    if transport == "tcp":
        hub = TCPHub()
        await hub.start()
        muxes = [await open_mux("127.0.0.1", hub.port) for _ in muxes]
    session = Session(
        n,
        prepared.adversary,
        byzantine=prepared.byzantine,
        max_rounds=prepared.max_rounds,
        fast_forward=prepared.fast_forward,
        timeout=60.0,
        recorder=recorder,
    )
    session.on_round = on_round
    hosts = [
        asyncio.ensure_future(
            run_nodes(
                [prepared.processes[pid] for pid in shard],
                mux.endpoint(min(shard)),
                n,
                churn_pids=churn_pids,
            )
        )
        for shard, mux in zip(shards, muxes)
    ]
    try:
        result = await drive_session(session, muxes[-1], ())
        await asyncio.gather(*hosts)
    finally:
        for task in hosts:
            task.cancel()
        await asyncio.gather(*hosts, return_exceptions=True)
        if transport == "tcp":
            for mux in muxes:
                await mux.close()
            await hub.close()
    result.processes = list(prepared.processes)
    return result


def fuzz_case(family, seed):
    """The fuzzer's ``seed``-th instance of ``family``: its recipe and the
    execution keywords both substrates run it under."""
    config = sample_config(seed, 0, families=(family,), backends=("sim",))
    execution = {
        "crashes": None,
        "scenario": config.scenario,
        "max_rounds": config.max_rounds,
    }
    return config.recipe, execution


def count_calls(processes):
    """Wrap every process's ``send`` / ``receive`` / ``next_activity``;
    the returned counter tallies the calls by ``(pid, hook)``."""
    calls = Counter()
    for proc in processes:
        for hook in ("send", "receive", "next_activity"):
            def counted(*args, key=(proc.pid, hook), inner=getattr(proc, hook)):
                calls[key] += 1
                return inner(*args)

            setattr(proc, hook, counted)
    return calls


class TestPartitionInvariance:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "transport, examples", [("memory", 10), ("tcp", 3)], ids=["memory", "tcp"]
    )
    def test_any_partition_matches_sim(self, family, transport, examples):
        """Parity with sim-opt, and each pid's hook calls equal to
        sim-opt's: a host keeps the engine's wake table, so a sleeper
        woken by a bundle from another host is called when the engine
        calls it, and under ``fast_forward=False`` nobody sleeps."""

        @settings(
            max_examples=examples,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            seed=st.integers(0, 10_000),
            hosts=st.integers(1, 4),
            cut=st.integers(0, 10_000),
            fast_forward=st.booleans(),
        )
        def check(seed, hosts, cut, fast_forward):
            recipe, execution = fuzz_case(family, seed)
            execution["fast_forward"] = fast_forward
            prepared = prepare_recipe(recipe, **execution)
            calls = count_calls(prepared.processes)
            shards = deal(prepared.n, hosts, cut)
            served = asyncio.run(drive(prepared, shards, transport))
            reference = prepare_recipe(recipe, **execution)
            sim_calls = count_calls(reference.processes)
            sim = Engine(
                reference.processes,
                reference.adversary,
                byzantine=reference.byzantine,
                max_rounds=reference.max_rounds,
                fast_forward=fast_forward,
            ).run()
            check_parity(served, sim, "hosts", "sim")
            assert calls == sim_calls
            if not fast_forward:
                assert not any(hook == "next_activity" for _pid, hook in calls)

        check()

    # Not ab-consensus: its Signature nonces come from one in-process
    # counter, so they (and the payload digests) follow the order hosts
    # happen to run in -- parity holds, digest-exact replay cannot.
    @pytest.mark.parametrize("family", ["consensus-few", "gossip", "checkpointing"])
    def test_trace_round_trip_on_a_partition(self, family):
        recipe, execution = fuzz_case(family, 7)
        prepared = prepare_recipe(recipe, **execution)
        shards = deal(prepared.n, 3, 1)
        recorder = TraceRecorder(
            prepared.n,
            byzantine=prepared.byzantine,
            protocol=recipe,
            max_rounds=prepared.max_rounds,
        )
        recorded = asyncio.run(drive(prepared, shards, recorder=recorder))
        trace = recorder.finish(recorded, backend="net")
        # The partitioned recording replays on the engine ...
        check_parity(replay_trace(trace), recorded, "sim replay", "hosts")
        # ... and under another partition, every send digest verified.
        replayed = prepare_recipe(recipe, **{**execution, "scenario": None})
        replayed.adversary = trace.adversary()
        checker = TraceChecker(trace)
        result = asyncio.run(drive(replayed, deal(prepared.n, 2, 5), recorder=checker))
        checker.finish(result)
        check_parity(result, recorded, "hosts replay", "hosts")


@pytest.fixture
def routed(monkeypatch):
    """Kinds of every frame either hub routes, in routing order."""
    kinds = []
    route = MemoryHub._route

    def counting_route(self, src, dst, instance, body):
        kinds.append(decode(body)[0])
        return route(self, src, dst, instance, body)

    monkeypatch.setattr(MemoryHub, "_route", counting_route)
    return kinds


@pytest.fixture
def wire(monkeypatch):
    """``(src, dst, decoded frame)`` of every frame either hub routes,
    in routing order."""
    frames = []
    route = MemoryHub._route

    def spying_route(self, src, dst, instance, body):
        frames.append((src, dst, decode(body)))
        return route(self, src, dst, instance, body)

    monkeypatch.setattr(MemoryHub, "_route", spying_route)
    return frames


BUDGET_CASES = {
    "flooding": (
        {"name": "flooding", "inputs": [pid % 2 for pid in range(64)], "t": 3},
        {"crashes": "random", "seed": 1},
    ),
    "consensus": (
        {"name": "consensus", "inputs": [0, 1] * 40, "t": 9},
        {"crashes": "random", "seed": 1},
    ),
    "gossip": (
        {"name": "gossip", "rumors": list(range(36)), "t": 4},
        {"crashes": "random", "seed": 1},
    ),
    "flooding-churn": (
        {"name": "flooding", "inputs": [pid % 2 for pid in range(16)], "t": 4},
        {"scenario": Scenario(n=16, crashes=[(3, 1, 0)], churn=[(7, 1, 3, None)])},
    ),
}


class TestFrameBudget:
    """Frames follow hosts and rounds, not pids and messages (at the
    parent commit the first three cases routed 16,889 / 13,787 / 19,690
    frames)."""

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    @pytest.mark.parametrize("hosts", [1, 3])
    @pytest.mark.parametrize("case", sorted(BUDGET_CASES))
    def test_frames_per_run(self, case, hosts, transport, routed):
        recipe, execution = BUDGET_CASES[case]
        prepared = prepare_recipe(recipe, **execution)
        shards = deal(prepared.n, hosts, 2)
        executed = []
        served = asyncio.run(
            drive(
                prepared, shards, transport, on_round=lambda _s, rnd: executed.append(rnd)
            )
        )
        check_parity(served, run_recipe(recipe, **execution), "hosts", "sim")
        assert served.metrics.messages > 0
        h = len(shards)
        if h == 1:
            # START and DONE a round: own mail stays in the host.
            assert len(routed) <= 2 * len(executed) + 8
            assert routed.count("data") == 0
        # START, SENT, DONE per host and a bundle per ordered pair of
        # distinct hosts each round; READY, LAYOUT, STOP (and one spare)
        # per host each run; REJOIN and REJOINED per host each rejoin.
        rejoins = routed.count("rejoin")
        assert rejoins <= h * (case == "flooding-churn")
        assert len(routed) <= (h * h + 2 * h) * len(executed) + 4 * h + 2 * rejoins
        assert routed.count("data") <= h * (h - 1) * len(executed)

    @pytest.mark.parametrize("backend", ["net", "tcp"])
    def test_run_recipe_is_one_host(self, backend, routed):
        recipe, execution = BUDGET_CASES["flooding"]
        result = run_recipe(recipe, backend=backend, **execution)
        assert len(routed) <= 2 * result.rounds + 8
        assert routed.count("data") == 0

    def test_reports_carry_news_only(self, wire):
        # A row of SENT or DONE -- the shard's rows and the status rows,
        # also those a DONE carries for the SENT it folds in -- is a pid
        # that sent, or one whose (halted, decided, decision) moved: not
        # one per hook call (a row per call made 503 rows for 314 news).
        recipe, execution = BUDGET_CASES["flooding"]
        prepared = prepare_recipe(recipe, **execution)
        senders, changes = set(), []
        for proc in prepared.processes:
            for hook in ("send", "receive"):
                def spied(rnd, *inbox, proc=proc, inner=getattr(proc, hook)):
                    before = (proc.halted, proc.decided, proc.decision)
                    out = inner(rnd, *inbox)
                    if out:
                        senders.add((rnd, proc.pid))
                    if (proc.halted, proc.decided, proc.decision) != before:
                        changes.append((rnd, proc.pid))
                    return out

                setattr(proc, hook, spied)
        served = asyncio.run(drive(prepared, [list(range(prepared.n))]))
        check_parity(served, run_recipe(recipe, **execution), "host", "sim")
        reports = []
        for _s, _d, frame in wire:
            if frame[0] == "sent":
                reports += frame[2:]
            elif frame[0] == "done":
                reports.append(frame[2])
                reports += frame[4] or ()
        assert any(frame[0] == "done" and frame[4] for _s, _d, frame in wire)
        assert sum(map(len, reports)) <= len(senders) + len(changes)

    def test_dense_flooding_ships_broadcasts_without_destinations(self, wire):
        recipe, execution = BUDGET_CASES["flooding"]
        prepared = prepare_recipe(recipe, **execution)
        net = asyncio.run(drive(prepared, deal(prepared.n, 2, 0)))
        check_parity(net, run_recipe(recipe, **execution), "hosts", "sim")
        entries = [
            entry for _s, _d, frame in wire if frame[0] == "data" for entry in frame[2]
        ]
        # Every sender broadcasts every round: a broadcast crosses to
        # the other host as one entry standing for its 63 messages, and
        # all that carries destination ints is a crasher's prefix.
        broadcasts = Counter(src for src, _seq, dsts, _p in entries if dsts is None)
        prefixes = [(src, dsts) for src, _seq, dsts, _p in entries if dsts is not None]
        assert prefixes
        assert all(src in net.crashed and len(dsts) < 63 for src, dsts in prefixes)
        for pid, sent in net.metrics.per_node_messages.items():
            rest = sent - 63 * broadcasts[pid]
            shown = sum(len(dsts) for src, dsts in prefixes if src == pid)
            assert (shown <= rest < 63) if pid in net.crashed else rest == 0


class TestBundleCap:
    RECIPE = {"name": "flooding", "inputs": [pid % 2 for pid in range(40)], "t": 3}
    EXECUTION = {"crashes": "random", "seed": 4}

    def test_dense_flooding_ships_capped_bundles(self, monkeypatch, routed):
        monkeypatch.setattr(runtime_mod, "_BUNDLE_PAIRS", 50)
        prepared = prepare_recipe(self.RECIPE, **self.EXECUTION)
        net = asyncio.run(drive(prepared, deal(40, 2, 0)))
        check_parity(net, run_recipe(self.RECIPE, **self.EXECUTION), "hosts", "sim")
        # ~20 broadcasts a round cross each way, each counting 39 pairs;
        # the second takes a bundle past 50 pairs and closes it.
        assert routed.count("data") > 10 * net.rounds

    def test_two_hosts_count_bundles_per_destination(self, monkeypatch, routed):
        monkeypatch.setattr(runtime_mod, "_BUNDLE_PAIRS", 50)
        prepared = prepare_recipe(self.RECIPE, **self.EXECUTION)
        served = asyncio.run(drive(prepared, deal(40, 2, 3), "tcp"))
        check_parity(served, run_recipe(self.RECIPE, **self.EXECUTION), "hosts", "sim")
        assert routed.count("data") > 10 * served.rounds

    def test_unicast_payloads_close_a_bundle_by_size(self, monkeypatch, routed):
        # 16 one-destination groups of 1 KiB a round: far under the pair
        # cap, yet one bundle of them would not fit this connection's
        # 8 KiB guard -- a frame per message, as the model has it, would.
        monkeypatch.setattr(runtime_mod, "_BUNDLE_BYTES", 2048)
        monkeypatch.setattr(TCPMux, "max_frame_bytes", 8192)

        class Courier(Process):
            def on_start(self):
                self.got = []

            def send(self, rnd):
                return [((self.pid + 1) % self.n, bytes([self.pid]) * 1024)]

            def receive(self, rnd, inbox):
                self.got = inbox
                self.halt()

        # Even and odd pids on two hosts, so that every message crosses.
        prepared = prepare_recipe(
            {"name": "flooding", "inputs": [0] * 16, "t": 1}, crashes=None
        )
        prepared.processes = procs = [Courier(pid, 16) for pid in range(16)]
        shards = [list(range(0, 16, 2)), list(range(1, 16, 2))]
        result = asyncio.run(drive(prepared, shards, "tcp"))
        assert result.completed and result.metrics.messages == 16
        assert routed.count("data") == 8
        for proc in procs:
            src = (proc.pid - 1) % 16
            assert proc.got == [(src, bytes([src]) * 1024)]

    def test_one_oversized_payload_still_trips_the_frame_guard(self, monkeypatch):
        monkeypatch.setattr(TCPMux, "max_frame_bytes", 4096)

        class Shouter(Process):
            def send(self, rnd):
                return [((self.pid + 1) % self.n, b"x" * 20_000)]

        async def main():
            hub = TCPHub()
            await hub.start()
            muxes = [await open_mux("127.0.0.1", hub.port) for _ in range(2)]
            hosts = [
                asyncio.ensure_future(run_nodes([Shouter(pid, 2)], mux.endpoint(pid), 2))
                for pid, mux in enumerate(muxes)
            ]
            try:
                await Session(2, timeout=30.0).run(muxes[0].endpoint(2))
            finally:
                for host in hosts:
                    host.cancel()
                await asyncio.gather(*hosts, return_exceptions=True)
                for mux in muxes:
                    await mux.close()
                await hub.close()

        # One pid per host: pid 1's bundle reaches the coordinator's
        # connection (pid 0's host shares it) over its 4 KiB guard, and
        # the error names the peer it was read from and the read phase.
        with pytest.raises(FrameTooLargeError, match=r"hub 127\.0\.0\.1:\d+.*mux recv"):
            asyncio.run(main())


class TestDiagnosticsStayPerPid:
    @pytest.mark.parametrize("hook", ["send", "receive", "next_activity"])
    def test_a_raising_hook_names_its_pid(self, hook):
        # Nobody sends; pid 3's hook raises in round 0 (its next_activity
        # is asked there: silent, empty inbox, not halted) and the shard
        # names it, whichever of its two phases the hook runs in.
        class Fragile(Process):
            def fire(self, where):
                if self.pid == 3 and where == hook:
                    raise ValueError(f"{where} on fire")

            def send(self, rnd):
                self.fire("send")
                return []

            def receive(self, rnd, inbox):
                self.fire("receive")
                if self.pid != 3:
                    self.halt()

            def next_activity(self, rnd):
                self.fire("next_activity")
                return rnd + 1

        prepared = prepare_recipe(
            {"name": "flooding", "inputs": [0] * 5, "t": 1}, crashes=None
        )
        prepared.processes = [Fragile(pid, 5) for pid in range(5)]
        with pytest.raises(
            NetRuntimeError, match=f"node 3 failed with ValueError: {hook} on fire"
        ):
            asyncio.run(drive(prepared, [[0, 1], [2, 3, 4]]))

    def test_an_unserialisable_payload_names_its_sender(self):
        class Opaque:
            """Accountable, but not picklable."""

            def __init__(self):
                self.hook = lambda: None

            def bits_size(self):
                return 8

        class Careless(Process):
            def send(self, rnd):
                payload = Opaque() if self.pid == 2 else self.pid
                return [((self.pid + 1) % self.n, payload)]

        prepared = prepare_recipe(
            {"name": "flooding", "inputs": [0] * 5, "t": 1}, crashes=None
        )
        prepared.processes = [Careless(pid, 5) for pid in range(5)]
        with pytest.raises(NetRuntimeError, match="node 2 failed with "):
            asyncio.run(drive(prepared, [[0, 1, 2, 3, 4]]))

    def test_rejoin_without_churn_pids_names_the_pid(self):
        recipe, execution = BUDGET_CASES["flooding-churn"]
        prepared = prepare_recipe(recipe, **execution)
        started = time.monotonic()
        with pytest.raises(
            NetRuntimeError, match="node 7 is scheduled to rejoin but was hosted"
        ):
            asyncio.run(drive(prepared, deal(16, 2, 0), churn_pids=()))
        # At the crash, not at the session's 60 s watchdog.
        assert time.monotonic() - started < 10


class TestBroadcastColumn:
    def test_column_crosses_hosts_beside_a_masked_sender_and_a_prefix(self, wire):
        # Six all-to-all broadcasters on three hosts.  In round 1 pid 2
        # crashes after 4 of its 5 messages and the link 4 -> 1 is
        # blocked: those two senders' groups are split by host, every
        # other sender ships one entry with dsts None per host, and each
        # inbox equals the engine's element for element.
        n = 6
        scenario = Scenario(
            n=n, crashes=[(2, 1, 4)], omissions=[OmissionSpec(4, 1, (1,))]
        )
        shards = deal(n, 3, 163)
        assert shards == [[4], [2, 5], [0, 1, 3]]

        def plan(proc, rnd):
            return [Multicast(proc.everyone_else(), ("b", rnd, proc.pid))]

        sim_log, net_log = {}, {}
        sim = Engine(
            [ScriptedProcess(pid, n, plan, sim_log, 3) for pid in range(n)],
            scenario.adversary(),
        ).run()
        prepared = prepare_recipe(
            {"name": "flooding", "inputs": [0] * n, "t": 2}, scenario=scenario
        )
        prepared.processes = [
            ScriptedProcess(pid, n, plan, net_log, 3) for pid in range(n)
        ]
        served = asyncio.run(drive(prepared, shards))
        check_parity(served, sim, "hosts", "sim")
        assert net_log == sim_log
        assert sim_log[(1, 1)] == [(q, ("b", 1, q)) for q in (0, 2, 3, 5)]
        round_one = [
            (src, dst, entry)
            for src, dst, frame in wire
            if frame[0] == "data" and frame[1] == 1
            for entry in frame[2]
        ]
        # Round 1 on the wire: a broadcast crosses hosts as one entry ...
        assert (0, 2, (0, 0, None, ("b", 1, 0))) in round_one
        # ... while the crasher's prefix and the masked remainder carry
        # the destinations behind each host.
        assert (2, 0, (2, 0, (0, 1, 3), ("b", 1, 2))) in round_one
        assert (2, 4, (2, 0, (4,), ("b", 1, 2))) in round_one
        assert (4, 0, (4, 0, (0, 3), ("b", 1, 4))) in round_one
        assert (4, 2, (4, 0, (2, 5), ("b", 1, 4))) in round_one
        assert {src for _s, _d, (src, _q, dsts, _p) in round_one if dsts is None} == {
            0, 1, 3, 5
        }


class _Keeper(Process):
    """Pid 0 multicasts one mutable payload in round 0; everyone keeps
    the object they were handed."""

    def on_start(self):
        self.sent = None
        self.got = None

    def send(self, rnd):
        if rnd == 0 and self.pid == 0:
            self.sent = ["shared?"]
            yield Multicast(tuple(range(self.n)), self.sent)

    def receive(self, rnd, inbox):
        for _src, payload in inbox:
            self.got = payload
        self.halt()


class TestSharingContract:
    @staticmethod
    def keep(shards, transport):
        """Run the keepers over ``shards``; check that every receiver
        got the sender's value, co-hosted receivers one decoded object,
        hosts never the same one, and nobody the sender's own."""
        procs = [_Keeper(pid, 5) for pid in range(5)]
        prepared = prepare_recipe(
            {"name": "flooding", "inputs": [0] * 5, "t": 1}, crashes=None
        )
        prepared.processes = procs
        asyncio.run(drive(prepared, shards, transport))
        sender = procs[0].sent
        assert all(proc.got == sender for proc in procs)
        for shard in shards:
            assert len({id(procs[pid].got) for pid in shard}) == 1
        assert len({id(proc.got) for proc in procs}) == len(shards)
        assert all(proc.got is not sender for proc in procs)

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_one_copy_per_destination_host(self, transport):
        self.keep([[0, 1, 2], [3, 4]], transport)

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_own_mail_is_a_decoded_copy(self, transport):
        # Own mail never reaches the hub, and is pickled all the same.
        self.keep([[0, 1, 2, 3, 4]], transport)
