"""Multi-valued consensus measured in payload bits (Liang–Vaidya slot).

Liang–Vaidya study consensus on *long* values, where the figure of
merit is total payload **bits**, not messages.  This comparator fills
that slot with the classical rotating-coordinator crash-model
algorithm: in round ``r`` (``r = 0 .. t``) node ``r`` multicasts its
current value and every receiver adopts it; after round ``t`` everyone
decides its current value.

Among the ``t + 1`` coordinators at least one never crashes; its round
imposes a common value on every operational node, and later rounds
cannot break that agreement (a later coordinator either already holds
the common value -- it adopted it while operational -- or is crashed
and silent).  Validity is immediate: values are only ever adopted, so
every estimate is some node's input.

The communication shape is the point: one ``width``-bit multicast per
round -- ``(t + 1) · (n - 1)`` messages, ``O(n · t · width)`` bits,
*linear in n per round* -- against flooding's ``n² · (t + 1)``
all-to-all messages for the same multi-valued instance.  This is the
family that exercises the ``payload_bits`` accounting end to end:
its certificate envelope is written in bits, so a node that pads or
re-broadcasts wide payloads blows the bound even when its message
count stays small.
"""

from __future__ import annotations

from typing import Any

from repro.sim.process import Multicast, Process

__all__ = ["LVConsensusProcess"]


class LVConsensusProcess(Process):
    """Rotating-coordinator broadcast; decide after ``t + 1`` rounds."""

    def __init__(self, pid: int, n: int, t: int, input_value: int, width: int):
        super().__init__(pid, n)
        self.t = t
        self.width = width
        self.value = input_value
        self.rounds = t + 1

    def send(self, rnd: int):
        if rnd >= self.rounds or rnd != self.pid or self.n < 2:
            return ()
        return [Multicast(self.everyone_else(), self.value)]

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd >= self.rounds:
            return
        for _, payload in inbox:
            self.value = payload
        if rnd == self.rounds - 1:
            self.decide(self.value)
            self.halt()

    def next_activity(self, rnd: int) -> int:
        return rnd + 1
