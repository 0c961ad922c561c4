"""Baseline: quadratic-message checkpointing.

Round 0: every node pings everyone; each node forms the membership mask
of pings it received.  Rounds 1 .. t+1: all-to-all AND-flooding of the
masks (the ``n`` bit-wise instances of flooding-min consensus, combined
into a mask per message).  Decide the final mask.

Correctness sketch: only nodes operational after round 0 ever broadcast
a mask, and such nodes received the complete ping of every node that
remains operational at the end, so every broadcast mask contains every
such node -- the AND keeps condition (2).  A node that crashed before
sending any ping is in no mask -- condition (1).  The clean-round
argument (some round among ``t + 1`` has no crash) yields equality --
condition (3).

``Θ(n²·t)`` messages, ``O(t)`` rounds: the time-optimal but
message-heavy comparator for Theorem 10 (the role the De Prisco--
Mayer--Yung [20] / pre-[25] algorithms play in the paper's Table 1
discussion).
"""

from __future__ import annotations

from typing import Any

from repro.core.checkpointing import mask_to_set
from repro.sim.process import Multicast, Process

__all__ = ["NaiveCheckpointingProcess"]


class NaiveCheckpointingProcess(Process):
    """Ping round plus ``t + 1`` rounds of mask AND-flooding."""

    def __init__(self, pid: int, n: int, t: int):
        super().__init__(pid, n)
        self.t = t
        self.mask = 1 << pid
        self.end_round = t + 2  # round 0 ping + rounds 1..t+1 flooding

    def send(self, rnd: int):
        if self.n < 2:
            return ()
        if rnd == 0:
            return [Multicast(self.everyone_else(), 1)]
        if rnd < self.end_round:
            return [Multicast(self.everyone_else(), self.mask)]
        return ()

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd == 0:
            for src, _ in inbox:
                self.mask |= 1 << src
            return
        if rnd < self.end_round:
            for _, payload in inbox:
                self.mask &= payload | (1 << self.pid)
            if rnd == self.end_round - 1:
                self.decide(mask_to_set(self.mask))
                self.halt()

    def next_activity(self, rnd: int) -> int:
        return rnd + 1
