"""The ``Ω(t)`` part of Theorem 13: an adversary that keeps one node
ignorant for ``⌊t/2⌋`` rounds of any deterministic single-port gossip.

Following the proof, the adversary maintains two executions started from
configurations that differ only in the rumor of a chosen victim-relevant
node, pre-computes (by simulating the deterministic protocol) which port
the victim will poll each round, and crashes that node before it ever
sends -- spending at most two crashes per round across the two
executions.  While the budget lasts, the victim's state is identical in
both executions, so it cannot decide a correct extant set.

:func:`isolation_report` works for any deterministic
:class:`~repro.sim.singleport.SinglePortProcess` gossip protocol; the
tests and bench E13 run it against the round-robin ring baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.engine import Engine
from repro.sim.singleport import SinglePortProcess

__all__ = ["IsolationReport", "isolation_report"]

ProtocolFactory = Callable[[Sequence[Any]], list[SinglePortProcess]]


@dataclass
class IsolationReport:
    """Outcome of the isolation attack."""

    victim: int
    #: Rounds for which the victim's state was provably identical in the
    #: two executions (the measured lower bound on its decision time).
    isolated_rounds: int
    #: Crashes spent (≤ t).
    crashes_used: int
    #: Whether the victim's digests matched in every isolated round.
    digests_matched: bool


def _poll_targets(
    factory: ProtocolFactory,
    rumors: Sequence[Any],
    crashed: dict[int, CrashSpec],
    victim: int,
    upto_round: int,
) -> list[int]:
    """Simulate the deterministic protocol under the current crash
    schedule and record which port the victim polls each round."""
    targets: list[int] = []
    processes = factory(rumors)
    original_poll = processes[victim].poll

    def spying_poll(rnd: int):
        port = original_poll(rnd)
        if rnd == len(targets):
            targets.append(port if port is not None else -1)
        return port

    processes[victim].poll = spying_poll  # type: ignore[method-assign]
    Engine(
        processes,
        ScheduledCrashes(crashed),
        max_rounds=upto_round + 1,
        fast_forward=False,
    ).run()
    return targets


def isolation_report(
    factory: ProtocolFactory,
    rumors_a: Sequence[Any],
    rumors_b: Sequence[Any],
    t: int,
) -> IsolationReport:
    """Run the Theorem 13 construction against node 0, the victim.

    ``rumors_a``/``rumors_b`` are two rumor configurations (the proof
    uses two assignments the victim must distinguish); the adversary has
    budget ``t`` and crashes, round by round, the node whose port the
    victim polls next in either execution.
    """
    victim = 0
    n = len(rumors_a)
    if len(rumors_b) != n:
        raise ValueError("configurations must have equal length")
    crashes: dict[int, CrashSpec] = {}
    rounds = 0
    while len(crashes) + 2 <= t:
        advanced = False
        for rumors in (rumors_a, rumors_b):
            targets = _poll_targets(factory, rumors, crashes, victim, rounds)
            if rounds < len(targets):
                port = targets[rounds]
                if port >= 0 and port != victim and port not in crashes:
                    if len(crashes) >= t:
                        break
                    # Crash before it ever sends anything.
                    crashes[port] = CrashSpec(round=0, keep=0)
                    advanced = True
        if not advanced and rounds > 0:
            pass  # ports already covered this round; budget unspent
        rounds += 1

    # Verify the invariant: victim state digests equal through `rounds`.
    digests: dict[int, list] = {0: [], 1: []}
    for tag, rumors in ((0, rumors_a), (1, rumors_b)):

        def observer(rnd, procs, tag=tag):
            digests[tag].append(procs[victim].state_digest())

        Engine(
            factory(rumors), ScheduledCrashes(crashes), max_rounds=rounds + 1
        ).run(observer=observer)
    matched = all(
        a == b
        for a, b in zip(digests[0][:rounds], digests[1][:rounds])
    )
    return IsolationReport(
        victim=victim,
        isolated_rounds=rounds,
        crashes_used=len(crashes),
        digests_matched=matched,
    )
