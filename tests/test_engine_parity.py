"""Parity tests: the optimized engine hot path vs the reference loop.

The optimized round loop (batched metric recording, shared multicast
envelopes, the broadcast column, reused inbox lists, per-round
payload-bits caching, active membership tracking) must be *observably
identical* to the reference
loop kept from the seed engine: same rounds, messages, bits, per-node
and per-round tallies, decisions, crash sets and completion status,
for every protocol family and fault pattern.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    api,
    run_aea,
    run_ab_consensus,
    run_checkpointing,
    run_consensus,
    run_gossip,
    run_scv,
)
from repro.baselines import FloodingConsensusProcess
from repro.bench.workloads import byzantine_sample, input_vector, rumor_vector
from repro.check.oracles import check_parity
from repro.scenarios import ChurnSpec, OmissionSpec, Scenario
from repro.sim import Engine, crash_schedule
from repro.sim import process as process_module
from repro.sim import shard as shard_module
from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.process import Multicast, Process, ProtocolError
from tests.conftest import (
    drawn_scenario,
    run_scripted,
    scenario_draws,
    scripted_pair,
)


def assert_parity(optimized, reference):
    """Full observable-equality check between two run results.

    Routed through :func:`repro.check.oracles.check_parity`, the single
    parity definition shared with the fuzz driver and the bench
    certification rows -- so what "identical execution" means cannot
    drift between the test suite and the fuzzing/bench subsystems.
    """
    check_parity(optimized, reference, "optimized", "reference")


def broadcast(proc, rnd):
    """The pure-broadcaster output the column takes."""
    return [Multicast(proc.everyone_else(), ("b", rnd, proc.pid))]


@contextmanager
def counted_set_proofs():
    """Yield one list per :class:`~repro.sim.shard.Shard` built, in build
    order (a ``scripted_pair`` builds the optimized loop's, the
    reference loop's and the net host's): each grows by one per set
    proof that shard runs on a broadcast's destination tuple
    (``proves_everyone_else``).  The universe a shard hands the helper
    is its module's only ``frozenset``."""
    proofs = []

    class Universe(frozenset):
        def __init__(self, *args):
            self.proofs = []
            proofs.append(self.proofs)

        def difference(self, *others):
            self.proofs.append(others)
            return frozenset.difference(self, *others)

    with mock.patch.object(shard_module, "frozenset", Universe, create=True):
        yield proofs


N = 100
SEED = 7


class TestProtocolParity:
    """The acceptance bar: byte-identical metrics for the paper's
    protocols under crash faults."""

    def test_consensus_few(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_consensus(inputs, 15, algorithm="few", seed=SEED),
            run_consensus(inputs, 15, algorithm="few", seed=SEED, optimized=False),
        )

    def test_consensus_many(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_consensus(inputs, 70, algorithm="many", seed=SEED),
            run_consensus(inputs, 70, algorithm="many", seed=SEED, optimized=False),
        )

    def test_gossip(self):
        rumors = rumor_vector(N, SEED)
        assert_parity(
            run_gossip(rumors, 12, seed=SEED),
            run_gossip(rumors, 12, seed=SEED, optimized=False),
        )

    def test_checkpointing(self):
        assert_parity(
            run_checkpointing(N, 10, seed=SEED),
            run_checkpointing(N, 10, seed=SEED, optimized=False),
        )

    def test_aea(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_aea(inputs, 16, seed=SEED),
            run_aea(inputs, 16, seed=SEED, optimized=False),
        )

    def test_scv(self):
        holders = range(70)
        assert_parity(
            run_scv(N, 9, holders, 1, seed=SEED),
            run_scv(N, 9, holders, 1, seed=SEED, optimized=False),
        )

    @pytest.mark.parametrize("behaviour", ["silent", "equivocate", "spam"])
    def test_ab_consensus_counts_only_honest_traffic(self, behaviour):
        inputs = input_vector(N, "random", SEED)
        byz = byzantine_sample(N, 4, SEED)
        optimized = run_ab_consensus(inputs, 4, byzantine=byz, behaviour=behaviour)
        reference = run_ab_consensus(
            inputs, 4, byzantine=byz, behaviour=behaviour, optimized=False
        )
        assert_parity(optimized, reference)
        if behaviour == "spam":
            assert optimized.metrics.faulty_messages > 0

    @pytest.mark.parametrize("kind", ["random", "early", "late", "staggered"])
    def test_crash_kinds(self, kind):
        inputs = input_vector(N, "random", SEED)
        for seed in (1, 2, 3):
            assert_parity(
                run_consensus(inputs, 15, algorithm="few", crashes=kind, seed=seed),
                run_consensus(
                    inputs,
                    15,
                    algorithm="few",
                    crashes=kind,
                    seed=seed,
                    optimized=False,
                ),
            )


class _PartialSendVictim(Process):
    """Broadcasts a distinct payload every round; with a crash-round
    ``keep`` budget only a prefix of its fan-out is delivered, which
    exercises the slow (truncated) send path of the optimized loop."""

    def send(self, rnd):
        yield Multicast(tuple(range(self.n)), ("chunk", rnd, self.pid))
        yield ((self.pid + 1) % self.n, rnd)

    def receive(self, rnd, inbox):
        if rnd >= 3:
            self.decide(sorted(src for src, _ in inbox))
            self.halt()


class TestEngineEdgeParity:
    def _run_pair(self, make_procs, adversary_factory, **engine_kwargs):
        a = Engine(make_procs(), adversary_factory(), optimized=True, **engine_kwargs)
        b = Engine(make_procs(), adversary_factory(), optimized=False, **engine_kwargs)
        return a.run(), b.run()

    @pytest.mark.parametrize("keep", [0, 1, 5, None])
    def test_partial_send_truncation(self, keep):
        n = 12
        make = lambda: [_PartialSendVictim(pid, n) for pid in range(n)]
        adv = lambda: ScheduledCrashes(
            {3: CrashSpec(round=1, keep=keep), 7: CrashSpec(round=2, keep=keep)}
        )
        assert_parity(*self._run_pair(make, adv))

    def test_everyone_crashes(self):
        n = 8
        make = lambda: [_PartialSendVictim(pid, n) for pid in range(n)]
        adv = lambda: ScheduledCrashes(
            {pid: CrashSpec(round=1, keep=0) for pid in range(n)}
        )
        optimized, reference = self._run_pair(make, adv)
        assert_parity(optimized, reference)
        assert optimized.completed

    def test_fast_forward_off(self):
        inputs = input_vector(60, "random", SEED)
        assert_parity(
            run_consensus(inputs, 9, seed=SEED, fast_forward=False),
            run_consensus(inputs, 9, seed=SEED, fast_forward=False, optimized=False),
        )

    def test_observer_sees_same_rounds(self):
        n = 40
        t = 4
        seen = {True: [], False: []}
        for optimized in (True, False):
            procs = [FloodingConsensusProcess(i, n, t, i % 2) for i in range(n)]
            engine = Engine(
                procs, crash_schedule(n, t, seed=2, max_round=t + 1), optimized=optimized
            )
            engine.run(observer=lambda rnd, ps: seen[optimized].append(rnd))
        assert seen[True] == seen[False]

    def test_retained_inbox_references_never_mutate(self):
        # A process may keep its inbox reference; neither path may ever
        # append to a list it already handed out (empty or not).
        class Retainer(Process):
            def on_start(self):
                self.seen = []

            def send(self, rnd):
                if rnd == 2 and self.pid == 0:
                    return [(1, "late")]
                return ()

            def receive(self, rnd, inbox):
                self.seen.append(inbox)
                if rnd >= 3:
                    self.halt()

        histories = {}
        for optimized in (True, False):
            procs = [Retainer(pid, 2) for pid in range(2)]
            Engine(procs, optimized=optimized, fast_forward=False).run()
            histories[optimized] = [list(box) for box in procs[1].seen]
        assert histories[True] == histories[False]
        assert histories[True] == [[], [], [(0, "late")], []]

    def test_retained_column_inboxes_are_private(self):
        # The same contract on a broadcast-column round: every receiver
        # gets its own list, and clearing or appending to it reaches no
        # other receiver, no later round and no sender's peer tuple.
        class Vandal(Process):
            def on_start(self):
                self.seen = []

            def send(self, rnd):
                return [Multicast(self.everyone_else(), (rnd, self.pid))]

            def receive(self, rnd, inbox):
                self.seen.append((inbox, list(inbox)))
                if self.pid % 2:
                    inbox.clear()
                else:
                    inbox.append((self.pid, "forged"))
                if rnd >= 2:
                    self.halt()

        n = 5
        histories = {}
        for optimized in (True, False):
            procs = [Vandal(pid, n) for pid in range(n)]
            Engine(procs, optimized=optimized).run()
            handed = [box for p in procs for box, _ in p.seen]
            assert len({id(box) for box in handed}) == len(handed)
            histories[optimized] = [[copy for _, copy in p.seen] for p in procs]
            for p in procs:
                assert p.everyone_else() == tuple(q for q in range(n) if q != p.pid)
        assert histories[True] == histories[False]
        assert histories[True][2][1] == [(q, (1, q)) for q in (0, 1, 3, 4)]

    def test_column_round_with_mixed_traffic(self):
        # pids 0-1 broadcast (column), 2 broadcasts and adds a
        # point-to-point message, 3 is point-to-point only, 4 silent,
        # 5 multicasts to a subset (all through the append buffers).
        def plan(proc, rnd):
            pid = proc.pid
            if pid < 2:
                return broadcast(proc, rnd)
            if pid == 2:
                return broadcast(proc, rnd) + [(0, ("extra", rnd))]
            if pid == 3:
                return [(5, ("p", rnd)), (1, ("q", rnd)), (5, ("r", rnd))]
            if pid == 5:
                return [Multicast((0, 3), ("sub", rnd))]
            return ()

        _result, log = scripted_pair(6, plan, 3)
        assert log[(1, 0)] == [
            (1, ("b", 1, 1)),
            (2, ("b", 1, 2)),
            (2, ("extra", 1)),
            (5, ("sub", 1)),
        ]
        assert log[(1, 5)] == [
            (0, ("b", 1, 0)),
            (1, ("b", 1, 1)),
            (2, ("b", 1, 2)),
            (3, ("p", 1)),
            (3, ("r", 1)),
        ]
        assert log[(2, 4)] == [(q, ("b", 2, q)) for q in range(3)]

    @pytest.mark.parametrize("keep", [0, 1, 3, 5])
    def test_column_merges_a_crashing_broadcaster(self, keep):
        # n = 6, so keep covers {0, 1, n // 2, n - 1}.  pid 2 crashes in
        # round 1 mid-broadcast: its prefix arrives through the append
        # buffers and is merged into the others' column.  Destinations 4
        # (crashed in round 0) and 5 (halted after round 0) are dead.
        n = 6
        schedule = lambda: {
            4: CrashSpec(round=0, keep=0), 2: CrashSpec(round=1, keep=keep)
        }
        result, log = scripted_pair(n, broadcast, 3, schedule, last={5: 0})
        assert result.crashed == {2, 4}
        assert (1, 4) not in log and (1, 5) not in log and (1, 2) not in log
        for pid in (0, 1, 3):
            senders = [
                q for q in (0, 1, 2, 3) if q != pid
                and (q != 2 or pid in (0, 1, 3, 4, 5)[:keep])
            ]
            assert log[(1, pid)] == [(q, ("b", 1, q)) for q in senders]

    def test_byzantine_broadcaster_delivered_not_counted(self):
        n = 5
        result, log = scripted_pair(n, broadcast, 2, byzantine=frozenset({1}))
        assert (1, ("b", 0, 1)) in log[(0, 3)]
        assert result.messages == 2 * (n - 1) * (n - 1)
        assert result.metrics.faulty_messages == 2 * (n - 1)

    @pytest.mark.parametrize(
        "case",
        [
            "duplicate", "self", "other-pid", "list", "mutated-list",
            "generator", "fresh", "evicted",
        ],
    )
    def test_column_near_misses(self, case):
        # pid 0 sends n - 1 destinations that are *not* (or not provably)
        # every pid but itself while pids 1.. broadcast; only "fresh"
        # (an equal tuple rebuilt every round) and "evicted" (its own
        # peer tuple, first sent after the shared table was dropped) may
        # take the column, and only through the set proof.  "other-pid"
        # is pid 1's shared peer tuple, which names pid 0.
        n = 5
        mutable = [1, 2, 3, 4]

        def plan(proc, rnd):
            if proc.pid:
                return broadcast(proc, rnd)
            payload = ("odd", rnd)
            if case == "generator":
                return (m for m in [Multicast(proc.everyone_else(), payload)])
            if case == "evicted" and rnd == 0:
                proc.everyone_else()
                del process_module._peer_tables[n]
                return [Multicast(tuple(range(1, n)), payload)]
            mutable[0] = 3 if rnd else 1
            dsts = {
                "duplicate": (1, 2, 3, 3),
                "self": (0, 1, 2, 3),
                "other-pid": Process(1, n).everyone_else(),
                "list": [1, 2, 3, 4],
                "mutated-list": mutable,
                "generator": None,
                "fresh": tuple(range(1, n)),
                "evicted": proc.everyone_else(),
            }[case]
            return [Multicast(dsts, payload)]

        with counted_set_proofs() as proofs:
            result, log = scripted_pair(n, plan, 3)
        # pids 1.. are proved by identity; pid 0 once per tuple object
        # that is not in the table ("evicted": the fresh tuple of round
        # 0, then its own), and every round if the proof fails -- on the
        # engine's shard and on the host's alike; the reference proves
        # nothing.
        asked = {
            "list": 0, "mutated-list": 0, "generator": 0, "evicted": 2,
        }.get(case, 3)
        assert [len(shard) for shard in proofs] == [asked, 0, asked]
        assert result.messages == 3 * n * (n - 1)
        expect = {
            "duplicate": [0, 0, 1, 2, 4],
            "self": [0, 1, 2, 4],
            "mutated-list": [0, 0, 1, 2, 4],
        }.get(case, [0, 1, 2, 4])
        assert [src for src, _ in log[(2, 3)]] == expect
        assert log[(2, 1)][0] == (
            (2, ("b", 2, 2))
            if case in ("mutated-list", "other-pid")
            else (0, ("odd", 2))
        )
        assert ((2, 0) in log and log[(2, 0)][0][0] == 0) == (
            case in ("self", "other-pid")
        )

    def test_out_of_range_near_miss_same_error_both_paths(self):
        def plan(proc, rnd):
            if proc.pid:
                return broadcast(proc, rnd)
            return [Multicast((1, 2, 3, proc.n), "x")]

        errors = []
        for backend in ("sim-opt", "sim-ref"):
            with pytest.raises(ProtocolError) as caught:
                run_scripted(5, plan, 2, backend=backend)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "process 0 sent to invalid pid 5"

    def test_multicast_without_destinations_is_not_a_broadcast(self):
        for dsts, outcome in ((None, TypeError), ((), None)):
            plan = lambda proc, rnd: [Multicast(dsts, "x")]
            for backend in ("sim-opt", "sim-ref"):
                if outcome:
                    with pytest.raises(outcome):
                        run_scripted(3, plan, 1, backend=backend)
                else:
                    result, log = run_scripted(3, plan, 1, backend=backend)
                    assert result.messages == 0 and log[(0, 1)] == []

    def test_two_processes_broadcast_to_each_other(self):
        result, log = scripted_pair(2, broadcast, 2)
        assert result.messages == 4
        assert log[(1, 0)] == [(1, ("b", 1, 1))]

    def test_lone_process_broadcast_to_nobody_is_not_a_delivery(self):
        # n = 1: ``everyone_else()`` is ``()``.  Nothing is delivered, so
        # the quiet round 0 fast-forwards to the declared wake-up.
        class Sleeper(Process):
            def on_start(self):
                self.woken = []

            def send(self, rnd):
                return [Multicast(self.everyone_else(), rnd)]

            def receive(self, rnd, inbox):
                self.woken.append(rnd)
                if rnd >= 5:
                    self.halt()

            def next_activity(self, rnd):
                return max(rnd + 1, 5)

        woken = {}
        for optimized in (True, False):
            proc = Sleeper(0, 1)
            result = Engine([proc], optimized=optimized).run()
            woken[optimized] = proc.woken
            assert result.messages == 0 and result.rounds == 6
        assert woken[True] == woken[False] == [0, 5]

    def test_invalid_destination_rejected_both_paths(self):
        class Bad(Process):
            def send(self, rnd):
                return [(self.n + 3, 0)]

        for optimized in (True, False):
            engine = Engine([Bad(0, 1)], optimized=optimized)
            with pytest.raises(ProtocolError):
                engine.run()

    def test_invalid_multicast_destination_rejected_both_paths(self):
        class BadMulticast(Process):
            def send(self, rnd):
                return [Multicast((0, self.n + 3), 0)]

        for optimized in (True, False):
            engine = Engine([BadMulticast(0, 1)], optimized=optimized)
            with pytest.raises(ProtocolError):
                engine.run()

    # -- the wake table: who is called, and when --------------------------

    @staticmethod
    def _sleepy_pair(n, plan, rounds, wake, adversary=lambda: None, **engine):
        """One plan on both loops and on net, with ``wake`` as every
        process's ``next_activity``: results at parity, every inbox
        sim-ref handed out that sim-opt did not is empty (and never the
        reverse), and net -- whose hosts keep the same wake table --
        makes exactly sim-opt's ``send`` calls and hands out exactly its
        inboxes.  Returns ``(result, log, calls)`` of the sim-opt run,
        ``calls`` the ``(rnd, pid)`` of every ``send`` made."""
        runs = []
        for backend in ("sim-opt", "sim-ref", "net"):
            calls = []

            def logged(proc, rnd, calls=calls):
                calls.append((rnd, proc.pid))
                return plan(proc, rnd)

            result, log = run_scripted(
                n, logged, rounds, backend=backend, adversary=adversary(),
                wake=wake, **engine,
            )
            runs.append((result, log, calls))
        (optimized, log, calls), (reference, ref_log, ref_calls), net = runs
        assert_parity(optimized, reference)
        assert set(log) <= set(ref_log) and set(calls) <= set(ref_calls)
        assert all(log.get(key, []) == box for key, box in ref_log.items())
        check_parity(net[0], optimized, "net", "sim-opt")
        assert net[1] == log and net[2] == calls
        return optimized, log, calls

    @staticmethod
    def _chatter(proc, rnd):
        """Pids 1 and 2 talk to each other every round, so every round
        is executed whatever pid 0 declares."""
        return [(3 - proc.pid, rnd)] if proc.pid in (1, 2) else []

    @staticmethod
    def _until(wake_round):
        """Pid 0 declares ``wake_round``; the others are always active."""
        return lambda proc, rnd: (
            max(rnd + 1, wake_round) if proc.pid == 0 else rnd + 1
        )

    @pytest.mark.parametrize("keep", [0, 1])
    def test_sleeper_crashing_in_its_sleep_sends_nothing(self, keep):
        def plan(proc, rnd):
            if proc.pid == 0:
                return broadcast(proc, rnd) if rnd >= 6 else []
            return self._chatter(proc, rnd)

        result, log, calls = self._sleepy_pair(
            4, plan, 10, self._until(6),
            lambda: ScheduledCrashes({0: CrashSpec(round=3, keep=keep)}),
        )
        assert result.crashed == {0}
        assert result.metrics.per_node_messages.get(0, 0) == 0
        assert [rnd for rnd, pid in calls if pid == 0] == [0]

    def test_message_to_a_sleeper_is_delivered_that_round(self):
        def plan(proc, rnd):
            if proc.pid == 1 and rnd == 3:
                return [(0, "knock")]
            return self._chatter(proc, rnd)

        _, log, calls = self._sleepy_pair(3, plan, 10, self._until(8))
        assert log[(3, 0)] == [(1, "knock")]
        # round 0 called and idle -> asleep; the delivery of round 3
        # arrives after that round's send phase; awake at 4, idle again.
        assert [rnd for rnd, pid in calls if pid == 0] == [0, 4, 8, 9]
        assert [rnd for rnd, pid in log if pid == 0] == [0, 3, 4, 8, 9]

    def test_churned_sleeper_is_called_at_its_rejoin_round(self):
        scenario = Scenario(n=3, churn=(ChurnSpec(0, 2, 5, None),))
        result, _, calls = self._sleepy_pair(
            3, self._chatter, 10, self._until(8), scenario.adversary
        )
        assert result.crashed == set()
        assert [rnd for rnd, pid in calls if pid == 0] == [0, 5, 8, 9]

    def test_process_halting_inside_send(self):
        def plan(proc, rnd):
            if proc.pid == 0 and rnd == 2:
                proc.halt()
                return [(1, "last words")]
            return self._chatter(proc, rnd)

        _, log, calls = self._sleepy_pair(3, plan, 6, self._until(2))
        assert (2, 0) not in log and log[(2, 1)][0] == (0, "last words")
        assert [rnd for rnd, pid in calls if pid == 0] == [0, 2]

    def test_next_activity_not_in_the_future_same_error_both_paths(self):
        errors = []
        for backend in ("sim-opt", "sim-ref", "net"):
            with pytest.raises(ProtocolError) as caught:
                run_scripted(
                    3, lambda proc, rnd: [], 4, backend=backend,
                    wake=lambda proc, rnd: rnd,
                )
            errors.append(str(caught.value))
        assert set(errors) == {"process 0 declared next_activity 0 <= 0"}

    @pytest.mark.parametrize(
        "engine", [dict(fast_forward=False), dict(observer=lambda rnd, ps: None)]
    )
    def test_without_fast_forward_everyone_is_called_every_round(self, engine):
        _, log, calls = self._sleepy_pair(
            3, self._chatter, 10, self._until(8), **engine
        )
        everyone = [(rnd, pid) for rnd in range(10) for pid in range(3)]
        assert calls == everyone and sorted(log) == everyone

    def test_omission_round_masks_one_broadcaster_of_the_column(self):
        n = 6
        scenario = Scenario(
            n=n,
            omissions=(OmissionSpec(2, 4, (1, 2)), OmissionSpec(2, 0, (2,))),
        )
        result, log, _ = self._sleepy_pair(
            n, broadcast, 4, None, scenario.adversary
        )
        assert result.metrics.dropped_messages == 3
        assert result.messages == 4 * n * (n - 1) - 3
        # the masked sender went through the append buffers, the other
        # five through the column: merged back in ascending sender pid
        assert [src for src, _ in log[(1, 3)]] == [0, 1, 2, 4, 5]
        assert [src for src, _ in log[(1, 4)]] == [0, 1, 3, 5]
        assert [src for src, _ in log[(2, 0)]] == [1, 3, 4, 5]

    def test_fully_masked_sender_stays_awake_and_a_silent_one_is_asked(self):
        # pid 0 declares rounds 2, 8, 12; the mask names it in rounds 2
        # and 8.  Round 2: its only message is dropped -- it sent, so it
        # is called again in round 3 although it would have declared 8.
        # Round 8: its send returns nothing -- it is asked, and sleeps
        # until 12 like any silent sender.
        def plan(proc, rnd):
            if proc.pid == 0:
                return [(3, "lost")] if rnd == 2 else []
            return self._chatter(proc, rnd)

        wake = lambda proc, rnd: (
            next(w for w in (2, 8, 12, rnd + 1) if w > rnd)
            if proc.pid == 0 else rnd + 1
        )
        scenario = Scenario(n=4, omissions=(OmissionSpec(0, 3, (2, 8)),))
        result, log, calls = self._sleepy_pair(
            4, plan, 14, wake, scenario.adversary
        )
        assert result.metrics.dropped_messages == 1
        assert result.metrics.per_node_messages.get(0, 0) == 0
        assert all(src != 0 for box in log.values() for src, _ in box)
        assert [rnd for rnd, pid in calls if pid == 0] == [0, 2, 3, 8, 12, 13]

    # -- who is normalised: a fault, not a recorder -----------------------

    @staticmethod
    def _recorded_run(recipe, scenario):
        """One *recorded* sim-opt run of ``recipe``.  Returns the
        ``(rnd, pid)`` of every ``send`` the engine asked for and of
        every call it made to ``collect_sends``, each in call order."""
        prepared = api.prepare_recipe(
            recipe, crashes=None, scenario=scenario, max_rounds=600
        )
        sends, collected = [], []
        for proc in prepared.processes:
            def send(rnd, pid=proc.pid, inner=proc.send):
                sends.append((rnd, pid))
                return inner(rnd)

            proc.send = send

        collect = shard_module.collect_sends

        def counting(proc, rnd, keep, n):
            collected.append((rnd, proc.pid))
            return collect(proc, rnd, keep, n)

        with mock.patch.object(shard_module, "collect_sends", counting):
            result = api._execute(
                prepared.processes,
                prepared.adversary,
                backend="sim",
                byzantine=prepared.byzantine,
                max_rounds=prepared.max_rounds,
                record_trace=True,
            )
        assert result.trace.total_sends() > 0
        return sends, collected

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        draw=scenario_draws(max_round=(3, 16), omission_links=16, churn_nodes=2),
        family=st.sampled_from(("flooding", "gossip")),
    )
    def test_recorded_run_normalises_exactly_its_faulted_senders(
        self, draw, family
    ):
        n, t = (12, 3) if family == "flooding" else (24, 3)
        recipe = {
            "flooding": {"name": "flooding", "inputs": input_vector(n, seed=SEED)},
            "gossip": {"name": "gossip", "rumors": rumor_vector(n)},
        }[family] | {"t": t}
        scenario = drawn_scenario(draw, n, t)
        sends, collected = self._recorded_run(recipe, scenario)
        adversary = scenario.adversary()
        faulted = [
            (rnd, pid)
            for rnd, pid in sends
            if pid in adversary.crashes_for_round(rnd, None)
            or (adversary.blocked_links(rnd) or {}).get(pid)
        ]
        # once per (sender, round) with a fault, and for nobody else
        assert collected == faulted
        sends, collected = self._recorded_run(recipe, None)
        assert sends and collected == []

    def test_sender_alternating_two_destination_tuples(self):
        tuples = ((1, 2), (2, 3))
        plan = lambda proc, rnd: (
            [Multicast(tuples[rnd % 2], rnd), (4, "x")] if proc.pid == 0 else []
        )
        result, log, _ = self._sleepy_pair(5, plan, 6, None)
        assert result.messages == 6 * 3
        assert log[(3, 3)] == [(0, 3)] and log[(3, 1)] == []

    def test_replaced_destination_tuple_is_checked_again(self):
        # (1, 2) is proved in range in round 0 and (2, 3) replaces it in
        # round 1: neither proof covers the equally long (1, 5).
        tuples = ((1, 2), (2, 3), (1, 5))
        plan = lambda proc, rnd: (
            [Multicast(tuples[rnd], rnd), (4, "x")] if proc.pid == 0 else []
        )
        errors = []
        for backend in ("sim-opt", "sim-ref"):
            with pytest.raises(ProtocolError) as caught:
                run_scripted(5, plan, 3, backend=backend)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "process 0 sent to invalid pid 5"


class TestInboxOrderContract:
    """``Process.receive`` documents its inbox order: ascending sender
    pid, and a sender's messages in the order it sent them.  Every
    substrate hands out that exact list."""

    def test_sim_opt_sim_ref_and_net_hand_out_the_same_inboxes(self):
        n = 7

        def plan(proc, rnd):
            pid = proc.pid
            out = []
            if (pid + rnd) % 3 == 0:
                out += broadcast(proc, rnd)
            if pid % 2:
                # Descending destinations, twice to pid 0: send order,
                # not destination or payload order, breaks the tie.
                out += [(dst, ("p", rnd, pid, seq)) for seq, dst in
                        enumerate((n - 1, 0, 0))]
            if pid == 4:
                out.append(Multicast((6, 1, 0), ("sub", rnd)))
            return out

        schedule = {2: CrashSpec(round=1, keep=3), 5: CrashSpec(round=2, keep=1)}
        logs = {}
        for backend in ("sim-opt", "sim-ref", "net"):
            _result, logs[backend] = run_scripted(
                n, plan, 4, backend=backend, adversary=ScheduledCrashes(schedule)
            )
        assert logs["sim-opt"] == logs["sim-ref"] == logs["net"]
        for inbox in logs["sim-ref"].values():
            senders = [src for src, _ in inbox]
            assert senders == sorted(senders)
        assert [m for m in logs["sim-ref"][(0, 0)] if m[0] == 1] == [
            (1, ("p", 0, 1, 1)), (1, ("p", 0, 1, 2))
        ]
