"""Baseline: direct all-to-all gossip.

Round 0: every node broadcasts its ``(pid, rumor)`` pair; round 1:
every node broadcasts its full extant set (the echo makes decided sets
nearly equal and covers recipients of partial crash-round sends).
``Θ(n²)`` messages in 2 rounds -- the message-heavy comparator for
Theorem 9's ``O(n + t log n log t)``.
"""

from __future__ import annotations

from typing import Any

from repro.sim.process import Multicast, Process

__all__ = ["NaiveGossipProcess"]


class NaiveGossipProcess(Process):
    """Two-round full-exchange gossip."""

    def __init__(self, pid: int, n: int, rumor: Any):
        super().__init__(pid, n)
        self.extant: dict[int, Any] = {pid: rumor}

    def send(self, rnd: int):
        if self.n < 2:
            return ()
        if rnd == 0:
            return [Multicast(self.everyone_else(), (self.pid, self.extant[self.pid]))]
        if rnd == 1:
            return [Multicast(self.everyone_else(), tuple(self.extant.items()))]
        return ()

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd == 0:
            for _, payload in inbox:
                q, rumor = payload
                self.extant.setdefault(q, rumor)
        elif rnd == 1:
            for _, payload in inbox:
                for q, rumor in payload:
                    self.extant.setdefault(q, rumor)
            self.decide(tuple(sorted(self.extant.items())))
            self.halt()

    def next_activity(self, rnd: int) -> int:
        return rnd + 1
