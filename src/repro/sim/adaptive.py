"""Adaptive crash adversaries.

The oblivious schedules in :mod:`repro.sim.adversary` commit to crash
times up front.  The adversaries here decide *during* the execution,
inspecting live engine state -- the strongest adversary the paper's
model admits (crashes are chosen by an adversary constrained only by
the budget ``t``).  They are used by the stress tests and the ablation
benchmarks to probe the overlay-based algorithms where random schedules
cannot: starving one node's overlay neighborhood, beheading the
committee mid-probing, or killing exactly the nodes that just decided.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.sim.adversary import CrashAdversary

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = [
    "CrashDecidersAdversary",
    "NeighborhoodStarver",
    "StaggeredCommitteeAdversary",
]


class NeighborhoodStarver(CrashAdversary):
    """Crashes the overlay neighborhood of one victim at a chosen round.

    The sharpest attack against local probing: if the victim's whole
    neighborhood dies right before the probing window, the victim
    receives zero probe messages and must pause (Proposition 1).  The
    spec requires the *rest* of the system to still meet its
    requirements.
    """

    def __init__(self, neighbors: Iterable[int], at_round: int, budget: int):
        self.victims = list(neighbors)[:budget]
        self.at_round = at_round

    def crashes_for_round(self, rnd: int, engine: "Engine") -> dict[int, Optional[int]]:
        if rnd != self.at_round:
            return {}
        return {pid: 0 for pid in self.victims if engine.operational(pid)}

    def next_event_round(self, rnd: int) -> Optional[int]:
        return self.at_round if rnd < self.at_round else None

    def total_budget(self) -> int:
        return len(self.victims)


class StaggeredCommitteeAdversary(CrashAdversary):
    """One committee crash per round with adversarial partial sends.

    The classical worst case for early-stopping algorithms (one crash
    per round keeps executions maximally ambiguous), focused on the
    little nodes and with ``keep=1`` partial deliveries, which maximises
    information asymmetry.
    """

    def __init__(self, committee_size: int, budget: int):
        self.committee_size = committee_size
        self.budget = budget
        self._used = 0

    def crashes_for_round(self, rnd: int, engine: "Engine") -> dict[int, Optional[int]]:
        if self._used >= self.budget:
            return {}
        victim = None
        for pid in range(self.committee_size):
            if engine.operational(pid) and not engine.processes[pid].halted:
                victim = pid
                break
        if victim is None:
            return {}
        self._used += 1
        return {victim: 1}

    def next_event_round(self, rnd: int) -> Optional[int]:
        if self._used >= self.budget:
            return None
        return rnd + 1

    def total_budget(self) -> int:
        return self.budget


class CrashDecidersAdversary(CrashAdversary):
    """Crashes nodes the moment they decide.

    Targets the decision-spreading parts: a decided node killed before
    it can answer inquiries is the adversary's best lever against
    Part 3 of Many-Crashes-Consensus and Part 2 of Spread-Common-Value.
    Budget permitting, up to ``per_round`` deciders die each round.
    """

    def __init__(self, budget: int, per_round: int = 2, spare: Iterable[int] = ()):
        self.budget = budget
        self.per_round = per_round
        self.spare = set(spare)
        self._used = 0

    def crashes_for_round(self, rnd: int, engine: "Engine") -> dict[int, Optional[int]]:
        if self._used >= self.budget:
            return {}
        chosen: dict[int, Optional[int]] = {}
        for proc in engine.processes:
            if len(chosen) >= self.per_round or self._used + len(chosen) >= self.budget:
                break
            pid = proc.pid
            if pid in self.spare or not engine.operational(pid):
                continue
            if proc.decided and not proc.halted:
                chosen[pid] = 0
        self._used += len(chosen)
        return chosen

    def next_event_round(self, rnd: int) -> Optional[int]:
        return rnd + 1 if self._used < self.budget else None

    def total_budget(self) -> int:
        return self.budget
