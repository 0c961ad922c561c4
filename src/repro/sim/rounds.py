"""The synchronous round's control plane, stated once.

Every backend executes the same lock-step round (Section 2, plus the
extensions of :mod:`repro.scenarios`); what differs is where the
processes live -- Python objects walked one by one, numpy arrays, hosts
behind a barrier (a single-port vector is ordinary processes on any of
these).  :class:`RoundControl` owns every statement of an execution
that does *not* depend on that: which crashed pids rejoin, who the
adversary crashes and which links it blocks, the trace recorder's
``round_events``, the booking of a send phase's rows
(:meth:`RoundControl.account`: messages, bits, drops, the recorder's
send digests, ``drop`` points), the ``rejoin`` / ``crash`` / ``round``
spans and ``decide`` points, termination, the quiescence fast-forward,
the ``max_rounds`` horizon, the everyone-crashed fixup and the sealed
:class:`RunResult`.  A backend is a *data plane* beneath it, making
three calls a round in the order the adversary's hooks are specified
(:class:`~repro.sim.adversary.CrashAdversary`); it owns every write to
``crashed``, the control only reads it:

>>> from types import SimpleNamespace as Node
>>> from repro.sim.adversary import CrashSpec, ScheduledCrashes
>>> from repro.sim.metrics import Metrics
>>> nodes = [Node(pid=pid, halted=False, decided=False) for pid in range(3)]
>>> crashed, executed = set(), []
>>> view = Node(n=3, crashed=crashed)
>>> ctl = RoundControl(view, ScheduledCrashes({2: CrashSpec(1)}), max_rounds=10)
>>> rnd = ctl.begin()
>>> while rnd is not None:
...     crashed.difference_update(ctl.rejoining(rnd))  # + state reset
...     crashing, blocked = ctl.open(rnd, [])
...     executed.append(rnd)  # send, deliver: silent nodes that stop at 3
...     crashed.update(crashing)
...     live = [node for node in nodes if node.pid not in crashed]
...     for node in live:
...         node.halted = rnd >= 3
...     rnd = ctl.close(
...         rnd, False, all(node.halted for node in live), lambda: 3
...     )
>>> result = ctl.seal(nodes, Metrics())
>>> executed, result.rounds, result.completed, result.crashed
([0, 1, 3], 4, True, {2})

(The quiescent rounds 0 and 1 jumped to the crash at round 1 and to the
wake the backend declared at round 3.)

:meth:`repro.sim.engine.Engine._loop_reference` deliberately does *not*
use this class: it is the executable specification every backend is
compared against, and a parity wall is evidence only while the
reference shares no code with what it checks.  So the round is stated
twice -- the spec and this control -- and nowhere else;
``tests/test_round_control.py`` fails on a third copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.sim.adversary import CrashAdversary
from repro.sim.metrics import Metrics
from repro.sim.process import Process, ProtocolError

__all__ = ["RoundControl", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    processes: Sequence[Process]
    metrics: Metrics
    crashed: set[int]
    byzantine: frozenset[int]
    completed: bool
    #: pid -> decision for processes that decided (crashed nodes that
    #: decided before crashing are included; callers filter as needed)
    decisions: dict[int, Any] = field(default_factory=dict)
    #: the recorded :class:`repro.trace.Trace`, attached by the
    #: ``repro.api`` entry points when ``record_trace`` was requested
    trace: Any = None
    #: the sealed :class:`repro.obs.RunTelemetry` artifact when the run
    #: was executed with ``telemetry=`` enabled, else ``None``
    telemetry: Any = None

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def bits(self) -> int:
        return self.metrics.bits

    def correct_pids(self) -> list[int]:
        """Processes that are neither crashed nor Byzantine."""
        return [
            p.pid
            for p in self.processes
            if p.pid not in self.crashed and p.pid not in self.byzantine
        ]

    def correct_decisions(self) -> dict[int, Any]:
        """Decisions of non-faulty processes only."""
        return {
            pid: value
            for pid, value in self.decisions.items()
            if pid not in self.crashed and pid not in self.byzantine
        }


class RoundControl:
    """One execution's control plane; see the module docstring.

    ``view`` is the backend as the adversary's ``crashes_for_round``
    inspects it (an engine, or the coordinator's
    :class:`~repro.net.faults.RuntimeView`): ``n``, the live ``crashed``
    set, and a ``round`` the control keeps current.
    ``telemetry`` is a live recorder or ``None``
    (:func:`repro.obs.recorder.coerce_recorder` already applied); with
    ``None`` no clock is read.
    """

    def __init__(
        self,
        view: Any,
        adversary: CrashAdversary,
        *,
        byzantine: frozenset[int] = frozenset(),
        max_rounds: int = 100_000,
        fast_forward: bool = True,
        recorder: Optional[Any] = None,
        telemetry: Optional[Any] = None,
    ):
        for pid in adversary.rejoin_pids():
            if not 0 <= pid < view.n:
                raise ProtocolError(f"rejoin scheduled for invalid pid {pid}")
            if pid in byzantine:
                raise ProtocolError(
                    f"adversary scheduled churn on Byzantine node {pid}"
                )
        self.view = view
        self.adversary = adversary
        self.crashed: set[int] = view.crashed
        self.byzantine = byzantine
        self.max_rounds = max_rounds
        self.fast_forward = fast_forward
        self.recorder = recorder
        self.telemetry = telemetry
        #: last round in which a message was delivered
        self.last_active_round = -1
        #: final once :meth:`begin` or :meth:`close` has returned ``None``
        self.completed = False
        self.rounds = 0
        self._decided_seen: set[int] = set()
        self._t_round = self._t_mark = 0.0

    def begin(self) -> Optional[int]:
        """The first round to execute (``None``: ``max_rounds`` is 0)."""
        return 0 if self.max_rounds > 0 else self._exhaust()

    def rejoining(self, rnd: int) -> list[int]:
        """Open round ``rnd``: the crashed pids whose churn schedule
        rejoins them now, sorted.  The backend reinstates them *before*
        :meth:`open`, so they take part in this round's send phase and
        an adaptive adversary nominates against post-rejoin state."""
        if self.telemetry is not None:
            self._t_round = self._t_mark = self.telemetry.clock()
        self.view.round = rnd
        scheduled = self.adversary.rejoins_for_round(rnd)
        if not scheduled:
            return []
        return sorted(pid for pid in scheduled if pid in self.crashed)

    def open(
        self, rnd: int, rejoining: Sequence[int]
    ) -> tuple[Mapping[int, Optional[int]], Optional[Mapping[int, frozenset[int]]]]:
        """Round ``rnd``'s faults as ``(crashing, blocked)``: pid ->
        partial-send ``keep`` budget of the nodes crashing now, and the
        link mask (``None``: no link fault this round)."""
        tel = self.telemetry
        if tel is not None:
            t_rejoin = tel.clock()
            if rejoining:
                tel.span("rejoin", rnd, self._t_round, t_rejoin)
                for pid in rejoining:
                    tel.point("rejoin", rnd, t_rejoin, pid=pid)
        crashing = self.adversary.crashes_for_round(rnd, self.view)
        for pid in crashing:
            if pid in self.byzantine:
                raise ProtocolError(
                    f"adversary attempted to crash Byzantine node {pid}"
                )
        blocked = self.adversary.blocked_links(rnd)
        if self.recorder is not None:
            self.recorder.round_events(rnd, crashing, rejoining, blocked)
        if tel is not None:
            self._t_mark = t_crash = tel.clock()
            tel.span("crash", rnd, t_rejoin, t_crash)
            for pid in crashing:
                tel.point("crash", rnd, t_crash, pid=pid, keep=crashing[pid])
        return crashing, blocked

    def account(self, rnd: int, rows: Iterable[tuple], metrics: Metrics) -> bool:
        """Book round ``rnd``'s send rows ``(pid, msgs, bits, dropped,
        records)`` (:meth:`repro.sim.shard.Shard.send`) into ``metrics``,
        the trace recorder and ``drop`` points; whether any message was
        sent.  A Byzantine sender's messages are tallied apart and its
        drops not at all."""
        byzantine, recorder, tel = self.byzantine, self.recorder, self.telemetry
        sent = False
        for pid, msgs, bits, dropped, records in rows:
            if msgs:
                sent = True
                metrics.record_send(pid, msgs, bits, rnd, pid not in byzantine)
            if dropped:
                if pid not in byzantine:
                    metrics.record_drop(dropped)
                if recorder is not None:
                    recorder.record_drops(rnd, pid, dropped)
                if tel is not None:
                    tel.point("drop", rnd, tel.clock(), pid=pid, count=dropped)
            if records:
                for dsts, bits_each, digest in records:
                    recorder.record_send_digest(rnd, pid, dsts, bits_each, digest)
        return sent

    def phase(self, name: str, rnd: int, deciders: Sequence[Any] = ()) -> float:
        """Telemetry only (call under ``if tel is not None``): close the
        data-plane phase ``name`` -- a span from the end of the previous
        phase to now, which is returned -- and stamp a ``decide`` point
        for each of ``deciders`` (process objects or status records)
        found decided for the first time."""
        now = self.telemetry.clock()
        self.telemetry.span(name, rnd, self._t_mark, now)
        self._t_mark = now
        self._decide_points(deciders, rnd)
        return now

    def close(
        self,
        rnd: int,
        delivered_any: bool,
        all_halted: bool,
        next_wake: Callable[[], Optional[int]],
    ) -> Optional[int]:
        """Close round ``rnd``; the next round to execute, or ``None``
        when the run is over.

        ``all_halted``: every operational non-Byzantine process has
        halted.  The run ends then -- unless a crashed node still has a
        scheduled rejoin ahead: a pending rejoin always fires first (the
        fast-forward jumps straight to it), and one at or beyond
        ``max_rounds`` exhausts the safety bound instead, so a scheduled
        rejoin is never silently skipped.  ``next_wake`` -- the earliest
        spontaneous activity the live processes declare, ``None`` for
        none -- is asked only on a quiescent round: nothing delivered
        means nothing can be triggered at ``rnd + 1``, so the run jumps
        to the earlier of that and the adversary's next event.
        """
        tel = self.telemetry
        if tel is not None:
            tel.span("round", rnd, self._t_round, self._t_mark)
        if delivered_any:
            self.last_active_round = rnd
        if all_halted and not self._rejoin_pending(rnd):
            self.rounds = rnd + 1
            self.completed = True
            return None
        nxt = rnd + 1
        if self.fast_forward and not delivered_any:
            nxt = self.max_rounds
            wake = next_wake()
            if wake is not None:
                nxt = min(nxt, wake)
            event = self.adversary.next_event_round(rnd)
            if event is not None:
                nxt = min(nxt, event)
            nxt = max(rnd + 1, nxt)
        return nxt if nxt < self.max_rounds else self._exhaust()

    def seal(self, processes: Sequence[Any], metrics: Metrics) -> RunResult:
        """The finished run's :class:`RunResult` over ``processes`` (the
        process objects, or the coordinator's status records)."""
        metrics.rounds = self.rounds
        result = RunResult(
            processes=processes,
            metrics=metrics,
            crashed=set(self.crashed),
            byzantine=self.byzantine,
            completed=self.completed,
        )
        for proc in processes:
            if proc.decided:
                result.decisions[proc.pid] = proc.decision
        tel = self.telemetry
        if tel is not None:
            # A kernel decides in bulk when it writes its state back, so
            # per-round decide timing is not observable there; what no
            # phase saw is stamped at the final round (the counts still
            # match the engine).
            self._t_mark = tel.clock()
            self._decide_points(processes, self.rounds - 1)
            tel.run_end(completed=self.completed)
            result.telemetry = tel.finish(result)
        return result

    def _decide_points(self, processes: Sequence[Any], rnd: int) -> None:
        seen = self._decided_seen
        for proc in processes:
            if proc.decided and proc.pid not in seen:
                seen.add(proc.pid)
                self.telemetry.point("decide", rnd, self._t_mark, pid=proc.pid)

    def _rejoin_pending(self, rnd: int) -> bool:
        return any(
            self.adversary.next_rejoin(pid, rnd) is not None
            for pid in self.crashed
        )

    def _exhaust(self) -> None:
        # Either max_rounds was hit, or every process crashed: then the
        # run is over at the last round with traffic.
        if all(
            pid in self.crashed or pid in self.byzantine
            for pid in range(self.view.n)
        ):
            self.completed = True
            self.rounds = max(self.last_active_round + 1, 0)
        else:
            self.rounds = self.max_rounds
