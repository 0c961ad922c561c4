"""The ``Ω(log n)`` part of Theorem 13: state divergence in the
single-port model grows by at most a factor of 3 per round.

The proof builds two initial configurations ``C0``/``C1`` differing at a
single pivotal node and shows by induction that after round ``i`` at
most ``3^i`` nodes can have different states in the two executions;
since all nodes must eventually decide differently (0 vs 1), the run
needs ``Ω(log₃ n)`` rounds.

:func:`find_pivotal_index` locates the pivot by scanning the paper's
staircase configurations ``C*_{<i}``; :func:`divergence_series` runs the
two executions in lock-step and reports ``|A_i|`` per round.  The
property test and benchmark E13 check ``|A_i| ≤ 3^i`` and that decision
happens no earlier than ``log₃ n`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.engine import Engine
from repro.sim.singleport import SinglePortProcess

__all__ = ["DivergenceReport", "divergence_series", "find_pivotal_index", "staircase"]

#: A factory building the full process vector for an input configuration.
ProtocolFactory = Callable[[Sequence[int]], list[SinglePortProcess]]


def staircase(n: int, i: int) -> list[int]:
    """The paper's configuration ``C*_{<i}``: names below ``i`` start
    with 0, the rest with 1."""
    return [0 if pid < i else 1 for pid in range(n)]


def _failure_free_decision(factory: ProtocolFactory, inputs: Sequence[int]):
    result = Engine(factory(inputs)).run()
    decisions = set(result.correct_decisions().values())
    if len(decisions) != 1:
        raise AssertionError(f"protocol broke agreement on {inputs[:8]}...: {decisions}")
    return decisions.pop()


def find_pivotal_index(factory: ProtocolFactory, n: int) -> int:
    """The index ``i`` such that ``C*_{<i}`` decides 1 and ``C*_{<i+1}``
    decides 0 (it exists by validity; located by binary search since the
    staircase decisions are monotone for the OR/flooding-style protocols
    reproduced here)."""
    if _failure_free_decision(factory, staircase(n, 1)) != 1:
        raise AssertionError("C*_{<1} (all but node 0 hold 1) must decide 1")
    if _failure_free_decision(factory, staircase(n, n + 1)) != 0:
        raise AssertionError("C*_{<n+1} (all zeros) must decide 0")
    low, high = 1, n + 1  # decision(low) == 1, decision(high) == 0
    while high - low > 1:
        mid = (low + high) // 2
        if _failure_free_decision(factory, staircase(n, mid)) == 1:
            low = mid
        else:
            high = mid
    return low  # C*_{<low} -> 1 and C*_{<low+1} -> 0 differ at node low


@dataclass
class DivergenceReport:
    """Per-round divergence between the two pivotal executions."""

    pivot: int
    #: ``divergence[i]`` = number of nodes whose state digests differ at
    #: the end of round ``i``.
    divergence: list[int]
    #: First round at which any process decided, per execution.
    first_decision_round: int

    def respects_cubic_bound(self) -> bool:
        """The Theorem 13 invariant ``|A_i| ≤ 3^i`` (with ``A_0`` the
        single pivot)."""
        return all(
            count <= 3 ** (i + 1) for i, count in enumerate(self.divergence)
        )


def divergence_series(factory: ProtocolFactory, n: int) -> DivergenceReport:
    """Run the two pivotal executions and measure state divergence."""
    pivot = find_pivotal_index(factory, n)
    inputs_one = staircase(n, pivot)      # decides 1
    inputs_zero = staircase(n, pivot + 1)  # decides 0

    digests: dict[int, list[tuple]] = {0: [], 1: []}
    decision_rounds: dict[int, int] = {}

    def observer_for(tag: int):
        def observer(rnd: int, processes) -> None:
            digests[tag].append(tuple(p.state_digest() for p in processes))
            if tag not in decision_rounds and any(p.decided for p in processes):
                decision_rounds[tag] = rnd

        return observer

    Engine(factory(inputs_zero)).run(observer=observer_for(0))
    Engine(factory(inputs_one)).run(observer=observer_for(1))

    rounds = min(len(digests[0]), len(digests[1]))
    series = []
    for rnd in range(rounds):
        row_zero = digests[0][rnd]
        row_one = digests[1][rnd]
        series.append(sum(1 for a, b in zip(row_zero, row_one) if a != b))
    first_decision = min(decision_rounds.values()) if decision_rounds else rounds
    return DivergenceReport(
        pivot=pivot, divergence=series, first_decision_round=first_decision
    )
