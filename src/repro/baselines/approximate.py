"""Approximate consensus: phase-based averaging toward ε-agreement.

The averaging family (cf. Dolev–Lynch–Pinter–Stark–Weihl): every round
each node broadcasts its current real-valued estimate and replaces it
with an average of the values it saw (its own included).  The
correctness notion is **ε-agreement** -- decided values lie within
``eps`` of each other -- plus **range validity**: every estimate is an
average of initial values, so decisions never leave
``[min(inputs), max(inputs)]``.

Two averaging rules are exposed, both variants of the phase-based
``AlgorithmOne`` in SNIPPETS.md:

* ``mode="midpoint"`` -- ``(min + max) / 2`` of the seen values, which
  halves the spread every clean round (snippet 2);
* ``mode="mean"`` -- the arithmetic mean (snippet 1).

SNIPPETS.md's ``AlgorithmTwo`` (snippet 3), a running mean that jumps
ahead to a later phase it hears of, is not implemented here.

In the paper's crash model (≤ ``t`` crashes, partial sends) at most
``t`` rounds are *dirty* (contain a crash), and in any clean round
every operational node averages the identical multiset of all
operational estimates -- so one clean round produces *exact* agreement,
which later dirty rounds cannot break (every received value already
equals the common one).  Running ``t + 1 + phases`` rounds therefore
guarantees ε-agreement for any ``eps``; the ``phases`` term is the
failure-free convergence schedule ``⌈log2(spread / eps)⌉`` that gives
the family its ε-parameterised round/bit envelope.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.sim.process import Multicast, Process

__all__ = ["ApproximateConsensusProcess", "approximate_phase_count"]


def approximate_phase_count(inputs: Sequence[float], eps: float) -> int:
    """The failure-free convergence schedule: halving the input spread
    below ``eps`` takes ``⌈log2(spread / eps)⌉`` averaging rounds (at
    least one, so the schedule is never empty)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    spread = max(inputs) - min(inputs)
    if spread <= eps:
        return 1
    return max(1, math.ceil(math.log2(spread / eps)))


class ApproximateConsensusProcess(Process):
    """Every-round estimate broadcast; decide after ``t + 1 + phases``
    averaging rounds."""

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        input_value: float,
        eps: float,
        phases: int,
        mode: str = "midpoint",
    ):
        super().__init__(pid, n)
        if mode not in ("midpoint", "mean"):
            raise ValueError(f"unknown averaging mode {mode!r}")
        self.t = t
        self.eps = float(eps)
        self.mode = mode
        self.value = float(input_value)
        self.rounds = t + 1 + phases

    def send(self, rnd: int):
        if rnd >= self.rounds or self.n < 2:
            return ()
        return [Multicast(self.everyone_else(), self.value)]

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd >= self.rounds:
            return
        values = [self.value]
        values.extend(payload for _, payload in inbox)
        if self.mode == "midpoint":
            self.value = (min(values) + max(values)) / 2.0
        else:
            self.value = math.fsum(values) / len(values)
        if rnd == self.rounds - 1:
            self.decide(self.value)
            self.halt()

    def next_activity(self, rnd: int) -> int:
        return rnd + 1
