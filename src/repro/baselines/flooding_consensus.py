"""Baseline: classical full-information flooding consensus.

The folklore time-optimal algorithm (cf. Dolev–Reischuk–Strong [23]):
for ``t + 1`` rounds every node broadcasts its current minimum to
everyone, then decides on the minimum value seen.  Correct for any
``t < n`` (the standard clean-round argument), runs in the optimal
``t + 1`` rounds, but sends ``Θ(n²·t)`` messages -- this is the
comparator that Table 1's algorithms beat on communication.
"""

from __future__ import annotations

from typing import Any

from repro.sim.process import Multicast, Process

__all__ = ["FloodingConsensusProcess"]


class FloodingConsensusProcess(Process):
    """Every-round min broadcast; decide after ``t + 1`` rounds."""

    def __init__(self, pid: int, n: int, t: int, input_value: int):
        super().__init__(pid, n)
        self.t = t
        self.minimum = input_value
        self.rounds = t + 1

    def send(self, rnd: int):
        if rnd >= self.rounds or self.n < 2:
            return ()
        return [Multicast(self.everyone_else(), self.minimum)]

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd >= self.rounds:
            return
        low = self.minimum
        for _, payload in inbox:
            if payload < low:
                low = payload
        self.minimum = low
        if rnd == self.rounds - 1:
            self.decide(self.minimum)
            self.halt()

    def next_activity(self, rnd: int) -> int:
        return rnd + 1
