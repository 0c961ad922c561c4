"""Baseline: deterministic single-port gossip with round-robin ports.

At round ``r``, node ``p`` sends its extant set to node
``(p + 1 + (r mod (n−1))) mod n`` and polls the port of node
``(p − 1 − (r mod (n−1))) mod n`` -- an oblivious round-robin schedule,
so after ``n − 1`` failure-free rounds every pair has exchanged sets
directly.  Decides after ``n + 1`` rounds.

This is the protocol the Theorem 13 ``Ω(t)`` adversary is demonstrated
against (:mod:`repro.lowerbounds.gossip_adversary`): its deterministic
port schedule lets the adversary pre-compute and crash exactly the node
whose port the victim will poll next.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.singleport import SinglePortProcess

__all__ = ["RingGossipProcess"]


class RingGossipProcess(SinglePortProcess):
    """Round-robin single-port gossip."""

    def __init__(self, pid: int, n: int, rumor: Any):
        super().__init__(pid, n)
        self.extant: dict[int, Any] = {pid: rumor}
        self.end_round = n + 1

    def _offset(self, rnd: int) -> int:
        return rnd % max(1, self.n - 1)

    def emit(self, rnd: int) -> Optional[tuple[int, Any]]:
        if rnd >= self.end_round or self.n == 1:
            return None
        target = (self.pid + 1 + self._offset(rnd)) % self.n
        if target == self.pid:
            return None
        return (target, tuple(self.extant.items()))

    def poll(self, rnd: int) -> Optional[int]:
        if rnd >= self.end_round or self.n == 1:
            return None
        source = (self.pid - 1 - self._offset(rnd)) % self.n
        return None if source == self.pid else source

    def absorb(self, rnd: int, message: Optional[tuple[int, Any]]) -> None:
        if message is not None:
            _, payload = message
            for q, rumor in payload:
                self.extant.setdefault(q, rumor)
        if rnd >= self.end_round - 1 and not self.halted:
            self.decide(tuple(sorted(self.extant.items())))
            self.halt()

    def next_activity(self, rnd: int) -> int:
        return rnd + 1

    def state_digest(self) -> tuple:
        return (self.pid, tuple(sorted(self.extant.items())), self.halted, self.decision)
