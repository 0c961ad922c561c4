"""Single-port synchronous engine (the model of Section 8).

In the single-port model a node may, per round, *send* at most one
message to one chosen node and *receive* from at most one chosen port.
"A node does not obtain any signal from any of its ports that messages
have been delivered to the port and need to be received" -- so reception
is modelled as polling: each round a process nominates at most one
sender pid whose port it checks, and retrieves the oldest pending
message from that port, if any.

Messages sent in a round become available for polling in the same round
(the engine runs all sends before all polls), consistent with the
paper's "all messages sent to a node in this round get delivered"
within-round delivery; Section 8's schedules never rely on same-round
polling, so this choice is invisible to the adapted algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from repro.sim.adversary import CrashAdversary, NoFailures
from repro.sim.engine import check_pid_order
from repro.sim.metrics import Metrics
from repro.sim.process import ProtocolError, payload_bits
from repro.sim.rounds import RoundControl, RunResult, earliest_wake

__all__ = ["SinglePortEngine", "SinglePortProcess", "SinglePortResult"]


class SinglePortProcess:
    """Base class for single-port protocol participants."""

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.halted = False
        self.decision: Any = None
        self._decided = False

    def on_start(self) -> None:
        """One-time initialisation before round 0."""

    def send(self, rnd: int) -> Optional[tuple[int, Any]]:
        """Return ``(dst, payload)`` or ``None`` (at most one send)."""
        return None

    def poll(self, rnd: int) -> Optional[int]:
        """Return the pid whose port to check this round, or ``None``."""
        return None

    def receive(self, rnd: int, message: Optional[tuple[int, Any]]) -> None:
        """Consume the polled message (``None`` if the port was empty)."""

    def next_activity(self, rnd: int) -> int:
        """Earliest round after ``rnd`` with spontaneous activity.

        Mirrors :meth:`repro.sim.process.Process.next_activity`; note
        that *polling* counts as activity because it is schedule-driven.
        """
        return rnd + 1

    def decide(self, value: Any) -> None:
        if self._decided:
            if self.decision != value:
                raise ProtocolError(
                    f"process {self.pid} attempted to change its decision "
                    f"from {self.decision!r} to {value!r}"
                )
            return
        self.decision = value
        self._decided = True

    @property
    def decided(self) -> bool:
        return self._decided

    def halt(self) -> None:
        self.halted = True

    def state_digest(self) -> tuple:
        items = []
        for key in sorted(self.__dict__):
            if key.startswith("_cache"):
                continue
            items.append((key, repr(self.__dict__[key])))
        return tuple(items)


#: A single-port run seals the same result as every other backend
#: (``byzantine`` is always empty here).
SinglePortResult = RunResult


class SinglePortEngine:
    """Lock-step engine enforcing the single-port discipline."""

    def __init__(
        self,
        processes: Sequence[SinglePortProcess],
        adversary: Optional[CrashAdversary] = None,
        *,
        max_rounds: int = 1_000_000,
        fast_forward: bool = True,
    ):
        check_pid_order(processes)
        self.processes = list(processes)
        self.n = len(processes)
        self.adversary = adversary if adversary is not None else NoFailures()
        churn = self.adversary.rejoin_pids()
        if churn:
            # There is no reset path here: a churn schedule would run as
            # plain crashes, or idle until its rejoin round had passed.
            raise ProtocolError(
                "the single-port model has no churn; the adversary "
                f"schedules rejoins for pids {sorted(churn)}"
            )
        self.max_rounds = max_rounds
        self.fast_forward = fast_forward
        self.metrics = Metrics()
        self.crashed: set[int] = set()
        # ports[dst][src] is the FIFO queue of messages from src pending
        # at dst; created lazily.
        self._ports: dict[int, dict[int, deque]] = {}
        self.round: int = 0

    def operational(self, pid: int) -> bool:
        return pid not in self.crashed

    def pending(self, dst: int, src: int) -> int:
        """Number of unread messages from ``src`` pending at ``dst``."""
        box = self._ports.get(dst)
        if not box or src not in box:
            return 0
        return len(box[src])

    def run(self, observer=None) -> SinglePortResult:
        """Execute to completion.

        ``observer(rnd, processes)`` is invoked after every executed
        round (disables fast-forward for this call only, without
        mutating ``self.fast_forward``), mirroring
        :meth:`repro.sim.engine.Engine.run`.
        """
        ctl = RoundControl(
            self,
            self.adversary,
            max_rounds=self.max_rounds,
            fast_forward=self.fast_forward and observer is None,
        )
        for proc in self.processes:
            proc.on_start()

        rnd = ctl.begin()
        while rnd is not None:
            # No churn and no link faults in this model: nothing to
            # reset, and the link mask is not consulted.
            crashing, _blocked = ctl.open(rnd, ctl.rejoining(rnd))

            # Send phase: at most one message per operational process.
            any_send = False
            for proc in self.processes:
                pid = proc.pid
                if pid in self.crashed or proc.halted:
                    continue
                crashes_now = pid in crashing
                out = proc.send(rnd)
                if crashes_now:
                    keep = crashing[pid]
                    if keep is not None and keep <= 0:
                        out = None
                    self.crashed.add(pid)
                if out is None:
                    continue
                dst, payload = out
                if not (0 <= dst < self.n):
                    raise ProtocolError(f"process {pid} sent to invalid pid {dst}")
                bits = payload_bits(payload)
                self.metrics.record_send(pid, 1, bits, rnd)
                self._ports.setdefault(dst, {}).setdefault(pid, deque()).append(payload)
                any_send = True

            # Poll phase: at most one port check per operational process.
            any_receive = False
            for proc in self.processes:
                pid = proc.pid
                if pid in self.crashed or proc.halted:
                    continue
                port = proc.poll(rnd)
                message: Optional[tuple[int, Any]] = None
                if port is not None:
                    if not (0 <= port < self.n):
                        raise ProtocolError(
                            f"process {pid} polled invalid port {port}"
                        )
                    box = self._ports.get(pid)
                    if box and port in box and box[port]:
                        message = (port, box[port].popleft())
                        any_receive = True
                proc.receive(rnd, message)

            if observer is not None:
                observer(rnd, self.processes)

            procs, crashed = self.processes, self.crashed
            rnd = ctl.close(
                rnd,
                any_send or any_receive,
                all(p.pid in crashed or p.halted for p in procs),
                lambda: earliest_wake(
                    (p for p in procs if p.pid not in crashed and not p.halted),
                    rnd,
                ),
            )

        return ctl.seal(self.processes, self.metrics)
