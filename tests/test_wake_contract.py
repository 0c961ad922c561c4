"""The per-process ``next_activity`` promise, stated as a test.

The optimized engine does not call a process between a round in which
it neither sent nor received and the round it then declares through
``next_activity`` -- unless a message arrives first (see
:meth:`repro.sim.process.Process.next_activity`).  That is sound only if
the skipped calls were no-ops, which is a property of each protocol, so
it is checked per protocol here rather than inferred from a parity diff
three layers up: every process of a vector is wrapped in a
:class:`Witness` and the vector runs on the *reference* loop with
fast-forward off, so every round of every declared sleep is executed and
looked at.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.api import build_recipe_processes
from repro.auth.signatures import SignatureService
from repro.baselines import (
    DSEverywhereProcess,
    EarlyStoppingConsensusProcess,
    NaiveCheckpointingProcess,
    NaiveGossipProcess,
    RingGossipProcess,
)
from repro.check.driver import FAMILIES, fault_window, sample_instance
from repro.core.byzantine import SilentByzantine
from repro.core.params import ProtocolParams
from repro.families import instance_shape
from repro.scenarios import Scenario
from repro.sim.engine import Engine, collect_sends
from repro.sim.process import Multicast, Process
from tests.conftest import (
    drawn_scenario,
    linear_vector,
    random_bits,
    scenario_draws,
)

WALL = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
SCENARIOS = scenario_draws(max_round=(6, 60), omission_links=12, churn_nodes=3)


class Witness(Process):
    """One wrapped process.  After every round in which ``inner``
    neither sent nor received it records ``next_activity(rnd)``; until
    that round, or the first delivery, ``inner`` must send nothing, and
    a ``receive`` with an empty inbox must leave its ``state_digest``
    (and ``halted``) as they were."""

    def __init__(self, inner, label):
        super().__init__(inner.pid, inner.n)
        self.inner = inner
        self.label = f"{label}: pid {inner.pid}"
        #: ``(round it was asked in, round it declared)`` while in force
        self.promise = None
        self.spoke = False

    def _mirror(self):
        self.halted = self.inner.halted
        if self.inner.decided:
            self.decide(self.inner.decision)

    def _asleep(self, rnd):
        return self.promise is not None and rnd < self.promise[1]

    def on_start(self):
        self.inner.on_start()
        self._mirror()

    def send(self, rnd):
        groups = collect_sends(self.inner, rnd, None, self.n)
        self._mirror()
        self.spoke = bool(groups)
        assert not (groups and self._asleep(rnd)), (
            f"{self.label} declared next_activity{self.promise} "
            f"and sent {groups!r} in round {rnd}"
        )
        return [Multicast(dsts, payload) for dsts, payload in groups]

    def receive(self, rnd, inbox):
        asleep = self._asleep(rnd)
        if inbox or not asleep:
            self.promise = None
            self.inner.receive(rnd, inbox)
        else:
            before = self.inner.state_digest()
            self.inner.receive(rnd, [])
            assert (
                self.inner.state_digest() == before and not self.inner.halted
            ), (
                f"{self.label} declared next_activity{self.promise} "
                f"and changed state on an empty inbox in round {rnd}"
            )
        self._mirror()
        if not (inbox or self.spoke or asleep or self.halted):
            answer = self.inner.next_activity(rnd)
            assert answer > rnd, f"{self.label}: next_activity({rnd}) = {answer}"
            self.promise = (rnd, answer)

    def next_activity(self, rnd):
        return self.inner.next_activity(rnd)


def hold_to_promise(label, processes, scenario, max_rounds, byzantine=frozenset()):
    """Run the wrapped vector where every process is called every round."""
    Engine(
        [Witness(proc, label) for proc in processes],
        scenario.adversary(),
        byzantine=byzantine,
        optimized=False,
        fast_forward=False,
        max_rounds=max_rounds,
    ).run()


@pytest.mark.parametrize("family", FAMILIES)
@WALL
@given(draw=SCENARIOS, seed=st.integers(0, 10_000))
def test_family_keeps_its_promise(family, draw, seed):
    recipe = sample_instance(family, random.Random(seed), seed)
    processes, _, byzantine = build_recipe_processes(recipe)
    n, t = instance_shape(recipe)
    honest = [pid for pid in range(n) if pid not in byzantine]
    _, _, max_rounds = fault_window(family, recipe)
    hold_to_promise(
        family, processes, drawn_scenario(draw, n, t, honest), max_rounds,
        byzantine,
    )


def _ds_everywhere(n, t, seed):
    params, service = ProtocolParams(n=n, t=t), SignatureService(n)
    byzantine = frozenset(random.Random(seed).sample(range(n), t))
    return [
        SilentByzantine(pid, n)
        if pid in byzantine
        else DSEverywhereProcess(pid, params, pid % 2, service)
        for pid in range(n)
    ], byzantine


#: label -> ``(n, t, seed) -> (processes, byzantine)``; the baselines
#: that are registered families are covered above
BASELINES = {
    "naive-gossip": lambda n, t, seed: (
        [NaiveGossipProcess(pid, n, f"r{pid}") for pid in range(n)],
        frozenset(),
    ),
    "early-stopping": lambda n, t, seed: (
        [
            EarlyStoppingConsensusProcess(pid, n, t, bit)
            for pid, bit in enumerate(random_bits(n, seed))
        ],
        frozenset(),
    ),
    "naive-checkpointing": lambda n, t, seed: (
        [NaiveCheckpointingProcess(pid, n, t) for pid in range(n)],
        frozenset(),
    ),
    "ds-everywhere": _ds_everywhere,
}


@pytest.mark.parametrize("label", BASELINES)
@WALL
@given(draw=SCENARIOS, n=st.integers(8, 30), seed=st.integers(0, 10_000))
def test_baseline_keeps_its_promise(label, draw, n, seed):
    t = 1 + seed % max(1, n // 5)
    processes, byzantine = BASELINES[label](n, t, seed)
    honest = [pid for pid in range(n) if pid not in byzantine]
    hold_to_promise(
        label, processes, drawn_scenario(draw, n, t, honest), 8 * n + 64,
        byzantine,
    )


@WALL
@given(
    draw=scenario_draws(max_round=(8, 500), omission_links=10, churn_nodes=2),
    n=st.integers(20, 40),
    seed=st.integers(0, 10_000),
)
def test_linear_consensus_keeps_its_promise(draw, n, seed):
    t = seed % ((n - 1) // 5 + 1)  # t < n/5
    factory, horizon = linear_vector(n, t, random_bits(n, seed))
    hold_to_promise(
        "linear-consensus", factory(), drawn_scenario(draw, n, t), horizon
    )


@WALL
@given(
    draw=scenario_draws(max_round=(4, 30), omission_links=10, churn_nodes=2),
    n=st.integers(2, 30),
)
def test_ring_gossip_keeps_its_promise(draw, n):
    ring = [RingGossipProcess(pid, n, f"r{pid}") for pid in range(n)]
    hold_to_promise("ring-gossip", ring, drawn_scenario(draw, n, n // 4), 1000)


def test_the_wall_bites():
    """A process that declares a sleep and then sends inside it, or
    counts empty rounds, fails by name."""

    class Liar(Process):
        def send(self, rnd):
            return [(1 - self.pid, rnd)] if rnd == 3 else ()

        def receive(self, rnd, inbox):
            if rnd >= 6:
                self.halt()

        def next_activity(self, rnd):
            return max(rnd + 1, 5)

    class Counter(Liar):
        def on_start(self):
            self.quiet_rounds = 0

        def send(self, rnd):
            return ()

        def receive(self, rnd, inbox):
            self.quiet_rounds += not inbox
            super().receive(rnd, inbox)

    for kind, complaint in ((Liar, "and sent"), (Counter, "changed state")):
        with pytest.raises(AssertionError, match=f"liar: pid 0 .*{complaint}"):
            hold_to_promise(
                "liar", [kind(0, 2), kind(1, 2)], Scenario(n=2), 10
            )
