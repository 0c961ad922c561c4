"""A process's life on a data plane: start, churn snapshot, wake table,
sleep and prune.

A :class:`Shard` holds the processes one data plane calls -- all ``n``
in :class:`~repro.sim.engine.Engine`, a host's own pids in
:mod:`repro.net` -- and is the one statement of how they live from
round to round; who rejoins and who crashes is
:class:`~repro.sim.rounds.RoundControl`'s to decide.

Churn snapshot
    A pid with a scheduled rejoin (the adversary's ``rejoin_pids()``)
    has its ``__dict__`` deep-copied when the shard is built, before
    ``on_start``.  A rejoin restores a fresh deep copy of it and runs
    ``on_start`` again, so a node can crash and rejoin more than once.

Wake table
    A round costs what it delivers, not ``n``.  ``wake[pid]`` is the
    first round at which ``pid`` must be called although nothing was
    delivered to it (at or below the current round means awake), and
    ``silent[pid]`` the last round in which it was called and its
    ``send`` returned no message.  The send phase skips a process whose
    entry lies ahead; the receive phase skips it unless its inbox is
    non-empty.  Then:

    * a process that sent or received stays awake without being asked,
      and so does a sender whose whole output a link mask dropped;
    * one that was called and did neither is asked ``next_activity``
      and sleeps until the round it declares (:meth:`Shard.idle`);
    * a delivery wakes a sleeper in that round's receive phase (its
      ``send`` for the round is skipped, which is what it promised);
    * a start or a rejoin wakes a pid at that round (:meth:`Shard.start`);
    * a sleeper the adversary crashes just crashes, without a call;
    * crashed and halted pids hold the ``horizon``
      (:meth:`Shard.prune`), so ``min(wake)`` is the earliest wake of
      the live processes -- where a quiescent round jumps to;
    * with ``fast_forward`` off nobody is asked, so nobody sleeps.

    ``tests/test_wake_contract.py`` holds each family to what it
    promises through ``next_activity``.

>>> from repro.sim.process import Process
>>> class Idle(Process):
...     def next_activity(self, rnd):
...         return 5
>>> shard = Shard([Idle(pid, 3) for pid in range(3)], 3, horizon=9, churn_pids=[2])
>>> shard.start(range(3), 0)
>>> [proc.pid for proc in shard.running], shard.wake
([0, 1, 2], [0, 0, 0])
>>> quiet = shard.running[1]
>>> shard.silent[1] = 0  # called in round 0, sent nothing ...
>>> quiet.receive(0, [])
>>> shard.idle(quiet, 0)  # ... and got nothing: asleep until round 5
>>> shard.procs[2].seen = "round 0"
>>> shard.prune({2})  # pid 2 crashes
>>> [proc.pid for proc in shard.running], shard.wake
([0, 1], [0, 5, 9])
>>> shard.start([2], 3)  # and rejoins at round 3, reset to its snapshot
>>> [proc.pid for proc in shard.running], shard.wake, hasattr(shard.procs[2], "seen")
([0, 1, 2], [0, 5, 3], False)
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from operator import attrgetter
from typing import Container, Iterable

from repro.sim.process import Process, ProtocolError

__all__ = ["Shard"]

_pid_of = attrgetter("pid")


class Shard:
    """``n`` sizes the pid-indexed ``wake`` / ``silent`` lists;
    ``horizon`` is an int above every round (the engine's
    ``max_rounds``).  The ``churn_pids`` held here are snapshotted now,
    so build the shard before ``on_start``."""

    def __init__(
        self,
        processes: Iterable[Process],
        n: int,
        horizon: int,
        churn_pids: Iterable[int] = (),
    ):
        #: pid -> process
        self.procs = {proc.pid: proc for proc in processes}
        self.horizon = horizon
        #: whether an idle process may sleep (set by the data plane)
        self.fast_forward = True
        #: pid -> deep copy of the process ``__dict__`` before ``on_start``
        self.snapshots = {
            pid: copy.deepcopy(self.procs[pid].__dict__)
            for pid in churn_pids
            if pid in self.procs
        }
        self.wake = [horizon] * n
        self.silent = [-1] * n
        #: the processes neither crashed nor halted, in pid order
        self.running: list[Process] = []

    def start(self, pids: Iterable[int], rnd: int) -> None:
        """Run ``on_start`` for ``pids`` and wake each at ``rnd`` unless
        it halted.  Nobody crashes before round 0, so a later start is a
        rejoin: the process is first reset to its snapshot."""
        running = self.running
        for pid in pids:
            proc = self.procs[pid]
            if rnd:
                snapshot = self.snapshots.get(pid)
                if snapshot is None:
                    raise ProtocolError(
                        f"rejoin of pid {pid} at round {rnd} was not announced "
                        "via rejoin_pids(), so no snapshot was taken"
                    )
                proc.__dict__.clear()
                proc.__dict__.update(copy.deepcopy(snapshot))
            proc.on_start()
            if proc.halted:
                continue
            self.wake[pid] = rnd
            at = bisect_left(running, pid, key=_pid_of)
            if at == len(running) or running[at] is not proc:
                running.insert(at, proc)

    def idle(self, proc: Process, rnd: int) -> None:
        """The sleep rule, for ``proc`` just handed an empty round-``rnd``
        inbox: if it also sent nothing, it sleeps."""
        pid = proc.pid
        if self.fast_forward and self.silent[pid] == rnd and not proc.halted:
            nxt = proc.next_activity(rnd)
            if nxt <= rnd:
                raise ProtocolError(
                    f"process {pid} declared next_activity {nxt} <= {rnd}"
                )
            self.wake[pid] = nxt

    def prune(self, crashed: Container[int]) -> None:
        """Drop the halted processes and those in ``crashed`` from
        :attr:`running`; their wake entries hold the horizon."""
        live = []
        for proc in self.running:
            if proc.halted or proc.pid in crashed:
                self.wake[proc.pid] = self.horizon
            else:
                live.append(proc)
        self.running[:] = live
