"""Baseline: early-stopping flooding consensus.

The paper's related work (Dolev–Reischuk–Strong [23]) centres on
*early-stopping* algorithms that decide in ``O(f + 1)`` rounds where
``f ≤ t`` is the number of crashes that actually occur.  This baseline
is the classical early-stopping variant of min-flooding:

* every undecided node broadcasts its current minimum each round;
* a node decides once it observes a *clean* pair of rounds -- the set
  of nodes it heard from did not shrink from round ``r − 1`` to ``r``
  (no failure manifested), which happens by round ``f + 2`` -- or at
  the hard cap ``t + 1``;
* a decider broadcasts one final tagged ``DECIDED`` message and halts;
  receivers adopt the value immediately (decision cascading), so the
  whole system halts within two rounds of the first decision.

Soundness of the clean-pair rule under partial crash-round sends: if
node ``p``'s heard-set did not shrink, then every node alive at round
``r − 1`` delivered its round-``r`` minimum to ``p`` (a sender whose
crash hid its message from ``p`` necessarily disappears from the heard
set), so ``p``'s minimum covers every value still alive in the system;
cascaded adoptions therefore agree.  The test suite drives the
hidden-value-chain adversary against exactly this argument.

``Θ(n²)`` messages per round is the price: Dolev–Lenzen prove deciding
in ``f + 1`` rounds forces ``Ω(n²)`` messages, which is why the paper's
fixed-schedule algorithms give up time adaptivity for linear
communication.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.process import Multicast, Process

__all__ = ["EarlyStoppingConsensusProcess"]

_DECIDED_TAG = "D"


class EarlyStoppingConsensusProcess(Process):
    """Early-stopping min-flooding consensus with decision cascading."""

    def __init__(self, pid: int, n: int, t: int, input_value: int):
        super().__init__(pid, n)
        self.t = t
        self.minimum = input_value
        self._heard_prev: Optional[frozenset[int]] = None
        self._announce = False

    def send(self, rnd: int):
        if self.n < 2:
            return ()
        if self._announce:
            return [
                Multicast(self.everyone_else(), (_DECIDED_TAG, self.decision))
            ]
        if not self.decided:
            return [Multicast(self.everyone_else(), self.minimum)]
        return ()

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if self._announce:
            # The final DECIDED broadcast is out; nothing left to do.
            self.halt()
            return
        heard = {src for src, _ in inbox} | {self.pid}
        adopted = None
        for _, payload in inbox:
            if isinstance(payload, tuple) and payload[0] == _DECIDED_TAG:
                adopted = payload[1]
            elif payload < self.minimum:
                self.minimum = payload
        if self.decided:
            return
        if adopted is not None:
            # Decision cascading: a decider's value is safe to adopt.
            self.decide(adopted)
            self._announce = True
            return
        clean_pair = self._heard_prev is not None and heard >= self._heard_prev
        self._heard_prev = frozenset(heard)
        if clean_pair or rnd >= self.t:
            self.decide(self.minimum)
            self._announce = True

    def next_activity(self, rnd: int) -> int:
        return rnd + 1
