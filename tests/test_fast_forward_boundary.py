"""Fast-forward at the max_rounds horizon and across churn rejoins.

The reference loop's ``_advance`` and ``RoundControl.close`` clamp a
quiescence jump to ``max_rounds`` when nothing wakes; these tests pin
that the clamped jump is *observably identical* to executing every
round (``fast_forward=False``) -- rounds, metrics, decisions,
completion -- near the horizon and across churn-rejoin wake events, on
both engine paths and the net runtime (every user of the control that
can host a custom ``Process``).  Plus the observer regression:
``Engine.run(observer=...)`` must not leave ``fast_forward`` mutated on
the engine.
"""

import pytest

from repro.check.oracles import check_parity
from repro.net import run_protocol_net
from repro.scenarios import ChurnSpec, Scenario
from repro.sim import Engine
from repro.sim.process import Multicast, Process


class Sleeper(Process):
    """Quiescent until ``wake``: sends one message at round ``wake``,
    decides on the next inbox, halts.  ``next_activity`` declares the
    wake round, so fast-forward jumps straight to it (or clamps at the
    horizon when ``wake >= max_rounds``)."""

    def __init__(self, pid, n, wake):
        super().__init__(pid, n)
        self.wake = wake

    def send(self, rnd):
        if rnd == self.wake:
            yield Multicast(tuple(range(self.n)), ("wake", rnd, self.pid))

    def receive(self, rnd, inbox):
        if rnd >= self.wake and inbox:
            self.decide(sorted(src for src, _ in inbox))
            self.halt()

    def next_activity(self, rnd):
        return self.wake if rnd < self.wake else rnd + 1


def run_grid(make_procs, adversary_factory, max_rounds):
    """The same execution on (optimized, reference, net) x (ff on, ff
    off); the engine cells are keyed by their ``optimized`` flag."""
    results = {}
    for fast_forward in (True, False):
        for optimized in (True, False):
            results[(optimized, fast_forward)] = Engine(
                make_procs(),
                adversary_factory(),
                max_rounds=max_rounds,
                optimized=optimized,
                fast_forward=fast_forward,
            ).run()
        results[("net", fast_forward)] = run_protocol_net(
            make_procs(),
            adversary_factory(),
            max_rounds=max_rounds,
            fast_forward=fast_forward,
            transport="memory",
        )
    return results


def assert_grid_parity(results):
    """Every cell observably identical to the reference/no-ff corner."""
    baseline = results[(False, False)]
    for key, result in results.items():
        check_parity(result, baseline, str(key), "(ref, no-ff)")
    return baseline


class TestHorizonClamp:
    """Wake events at, just under, and beyond the max_rounds horizon."""

    @pytest.mark.parametrize("wake_offset", [-2, -1, 0, 1])
    def test_wake_near_horizon(self, wake_offset):
        max_rounds = 40
        wake = max_rounds + wake_offset
        make = lambda: [Sleeper(pid, 3, wake) for pid in range(3)]
        results = run_grid(make, lambda: None, max_rounds)
        baseline = assert_grid_parity(results)
        if wake < max_rounds - 1:
            # Send at `wake`, decide+halt at `wake + 1` (empty round in
            # between never happens: deciding round is wake itself? --
            # the message is delivered in the send round, so the run
            # completes at wake + 1 rounds).
            assert baseline.completed
            assert baseline.metrics.rounds == wake + 1
        elif wake == max_rounds - 1:
            # The send lands in the last admissible round; deciding
            # happens within it, so the run still completes.
            assert baseline.completed
            assert baseline.metrics.rounds == max_rounds
        else:
            # Nothing ever wakes inside the horizon: the jump clamps to
            # max_rounds exactly -- neither short of it (which would
            # execute a pointless round) nor past it.
            assert not baseline.completed
            assert baseline.metrics.rounds == max_rounds
            assert baseline.decisions == {}

    def test_pure_quiescence_runs_to_horizon(self):
        # No process ever wakes: the clamped jump must report exactly
        # max_rounds on every path, with zero traffic.
        max_rounds = 17
        make = lambda: [Sleeper(pid, 2, 10_000) for pid in range(2)]
        results = run_grid(make, lambda: None, max_rounds)
        baseline = assert_grid_parity(results)
        assert baseline.metrics.rounds == max_rounds
        assert baseline.metrics.messages == 0


class Chatterer(Process):
    """Broadcasts each round until it decides at ``stop``; used as the
    halting majority around a churn node."""

    def __init__(self, pid, n, stop=6):
        super().__init__(pid, n)
        self.stop = stop

    def on_start(self):
        self.log = []

    def send(self, rnd):
        if rnd <= self.stop:
            yield Multicast(tuple(range(self.n)), ("r", rnd, self.pid))

    def receive(self, rnd, inbox):
        self.log.extend((rnd, src) for src, _ in inbox)
        if rnd >= self.stop:
            self.decide(len(self.log))
            self.halt()


class TestChurnRejoinWake:
    """Fast-forward across churn-rejoin wake events near the horizon."""

    @pytest.mark.parametrize("rejoin_offset", [-6, -1, 0, 2])
    def test_rejoin_near_horizon(self, rejoin_offset):
        max_rounds = 30
        rejoin = max_rounds + rejoin_offset
        n = 4
        scenario = Scenario(n=n, churn=[ChurnSpec(1, 2, rejoin, 0)])
        make = lambda: [Chatterer(pid, n) for pid in range(n)]
        results = run_grid(make, scenario.adversary, max_rounds)
        baseline = assert_grid_parity(results)
        if rejoin < max_rounds:
            # The rejoin fires (everyone else halted long before): the
            # node comes back, chats to itself, decides, halts.
            assert baseline.completed
            assert baseline.crashed == set()
            assert baseline.metrics.rounds == rejoin + 1
        else:
            # Unreachable rejoin: the run exhausts the safety bound on
            # every path identically instead of silently dropping it.
            assert not baseline.completed
            assert baseline.crashed == {1}
            assert baseline.metrics.rounds == max_rounds

    def test_rejoin_wake_interleaves_with_sleepers(self):
        # A sleeper's wake and a churn rejoin compete for the jump
        # target; the engine must take the earlier of the two, on both
        # paths, with and without fast-forward.
        max_rounds = 60
        n = 3

        def make():
            return [
                Chatterer(0, n, stop=3),
                Chatterer(1, n, stop=3),
                Sleeper(2, n, wake=40),
            ]

        scenario = Scenario(n=n, churn=[ChurnSpec(0, 1, 25, 0)])
        results = run_grid(make, scenario.adversary, max_rounds)
        baseline = assert_grid_parity(results)
        assert baseline.completed
        # The rejoin at 25 happened (node 0 is back and decided -- past
        # its chat window it decides on its first empty inbox) and the
        # sleeper's wake at 40 happened (its send is round 40's traffic).
        assert baseline.crashed == set()
        assert 0 in baseline.decisions
        assert baseline.metrics.per_round_messages[40] > 0
        assert baseline.metrics.rounds == 41


class TestObserverDoesNotMutateFastForward:
    """Engine.run(observer=) disables fast-forward for that call only."""

    def test_engine_flag_survives_observer(self):
        procs = [Sleeper(pid, 2, 5) for pid in range(2)]
        engine = Engine(procs, fast_forward=True)
        rounds_seen = []
        engine.run(observer=lambda rnd, ps: rounds_seen.append(rnd))
        # Every round was observed (fast-forward off during the call)...
        assert rounds_seen == list(range(6))
        # ...but the engine's configuration is untouched.
        assert engine.fast_forward is True
