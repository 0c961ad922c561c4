"""Runtime fault injection: simulator crash schedules on the net runtime.

The simulator's adversaries (:mod:`repro.sim.adversary`,
:mod:`repro.sim.adaptive`) are written against the live
:class:`~repro.sim.engine.Engine`: they read ``engine.round``, call
``engine.operational(pid)`` and inspect ``engine.processes[pid].halted``
/ ``.decided``.  The net runtime's coordinator does not hold the process
objects (in a multi-OS-process deployment they live in worker
processes), but it *does* track exactly that observable status from the
nodes' round reports.

:class:`RuntimeView` re-presents the coordinator's status table through
the engine's query surface, so any existing adversary -- oblivious
:class:`~repro.sim.adversary.ScheduledCrashes` schedules as well as the
adaptive ones -- drives the net runtime unchanged, and the same seed
produces the same crash set on both substrates (pinned by the parity
tests).  The coordinator hands the view to its
:class:`~repro.sim.rounds.RoundControl`, which consults the adversary
with the same validity checks and in the same order as on every other
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["NodeStatus", "RuntimeView"]


@dataclass
class NodeStatus:
    """Last observable state a node reported to the coordinator."""

    pid: int
    halted: bool = False
    decided: bool = False
    decision: Any = None


class RuntimeView:
    """An engine-shaped read-only view over the coordinator's status.

    Exposes the attributes adversaries consume: ``round``, ``crashed``,
    ``operational(pid)`` and ``processes`` (a pid-indexed sequence of
    :class:`NodeStatus`, which carries the ``pid`` / ``halted`` /
    ``decided`` fields the adaptive adversaries inspect).
    """

    def __init__(self, statuses: list[NodeStatus], crashed: set[int]):
        self.processes = statuses
        self.crashed = crashed
        self.round = 0
        self.n = len(statuses)

    def operational(self, pid: int) -> bool:
        return pid not in self.crashed
