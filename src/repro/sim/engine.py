"""Synchronous multi-port lock-step engine (the model of Section 2).

Round structure
---------------
Each round ``r`` consists of:

1. **rejoin phase** -- crashed nodes whose churn schedule rejoins them
   at ``r`` are reinstated with reset state (see
   :meth:`~repro.sim.adversary.CrashAdversary.rejoins_for_round`);
2. **crash phase** -- the adversary nominates nodes crashing at ``r``;
3. **send phase** -- every operational, non-halted process is asked for
   its outgoing messages; a node crashing this round delivers only the
   prefix of its sends allowed by its :class:`~repro.sim.adversary.CrashSpec`;
   a link filter (:meth:`~repro.sim.adversary.CrashAdversary.blocked_links`,
   omission/partition scenarios) then removes blocked messages in
   transit, tallying them as ``dropped_messages``;
4. **receive phase** -- all surviving messages are delivered ("during a
   round, all messages sent to a node in this round get delivered") and
   every operational, non-halted process consumes its (possibly empty)
   inbox.

Termination: the run ends when every operational non-Byzantine process
has halted **and** no crashed process still has a scheduled churn
rejoin ahead of it (a pending rejoin always fires before the run ends;
one at or beyond ``max_rounds`` exhausts the safety bound instead, so a
scheduled rejoin is never silently skipped).  The round count reported
is the number of rounds that occurred until then, matching the paper's
running-time metric.

Fast-forward
------------
Executions of the paper's algorithms are mostly silence: Theorems 5-9
spend O(n + t polylog) messages over Theta(t + log n) rounds, so most
nodes neither send nor receive in most rounds, and there are long
stretches in which nobody does (e.g. Part 1 of Many-Crashes-Consensus
runs ``n - 1`` rounds but floods quiesce after the diameter).  A process
declares its next spontaneous activity via
:meth:`~repro.sim.process.Process.next_activity`, and the engine uses
the answer twice.  *Globally*: when a round delivers no messages, it
jumps directly to the earliest declared round (or the adversary's next
event).  *Per process* (optimized loop): a process that was called in a
round and neither sent nor received is not called again until the round
it declared, unless a message is delivered to it first -- the wake
table of :mod:`repro.sim.shard`.  Both are execution-cost
optimisations, made by this engine and, with one shard per host, by
the :mod:`repro.net` runtime; protocols are written against absolute
round numbers so observable behaviour is identical (covered by tests
comparing fast-forward on/off, and per protocol by
``tests/test_wake_contract.py``).  ``fast_forward=False`` and
``run(observer=...)`` turn both off: every live process is called in
every round.

Hot path
--------
The engine carries two interchangeable round-loop implementations:

* the **reference** path (``Engine(..., optimized=False)``) is the
  original straight-line loop kept as the executable specification --
  of the send and receive phases and of the round's control flow
  alike, written without the control and the shard it is compared
  against;
* the **optimized** path (default) is :class:`~repro.sim.rounds.RoundControl`
  plus the two calls of one :class:`~repro.sim.shard.Shard` of all
  ``n`` processes, the round's data plane that every :mod:`repro.net`
  host drives too: :meth:`~repro.sim.shard.Shard.send` asks the awake
  processes for their output (normalising a faulted sender through
  ``collect_sends`` / ``apply_link_filter``, proving broadcasts into
  one column, caching ``payload_bits`` per payload) and
  :meth:`~repro.sim.shard.Shard.deliver` hands each receiver its inbox
  and applies the sleep rule.  An engine round is a one-host round: the
  entries go straight from the one call to the other, without a wire.
  The control books what the shard reports
  (:meth:`~repro.sim.rounds.RoundControl.account`: metrics, drops,
  trace records) and decides the rest.  A round costs what it
  delivers, not ``n`` (the wake table of :mod:`repro.sim.shard`), and
  an all-to-all round costs one list per receiver, not one append per
  message (the broadcast column).

Both paths produce identical rounds/messages/bits, per-node and
per-round tallies, decisions, crash sets and inboxes (ascending sender
pid, send order within a sender); ``tests/test_engine_parity.py`` pins
this for every protocol family.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional, Sequence

from repro.obs.recorder import coerce_recorder
from repro.sim.adversary import CrashAdversary, NoFailures
from repro.sim.metrics import Metrics
from repro.sim.process import Process, ProtocolError, payload_bits, payload_digest
from repro.sim.rounds import RoundControl, RunResult
from repro.sim.shard import Shard, apply_link_filter, collect_sends

__all__ = ["Engine", "RunResult", "check_pid_order"]


def check_pid_order(processes: Sequence[Process]) -> None:
    """Require ``processes[i].pid == i`` (shared by both substrates)."""
    for index, proc in enumerate(processes):
        if proc.pid != index:
            raise ProtocolError(
                f"process at index {index} has pid {proc.pid}; "
                "processes must be listed in pid order"
            )


class Engine:
    """Multi-port synchronous engine.

    Parameters
    ----------
    processes:
        One :class:`Process` per pid, index ``i`` holding pid ``i``.
    adversary:
        A :class:`CrashAdversary`; defaults to no failures.
    byzantine:
        Pids whose processes implement Byzantine behaviours.  Their
        traffic is excluded from the message/bit counts and they are
        exempt from the termination condition.
    max_rounds:
        Safety bound; exceeding it marks the run as not completed.
    fast_forward:
        Enable quiescence skipping, of rounds and of idle processes
        (see module docstring).
    optimized:
        Select the batched hot-path round loop (default) or the
        straight-line reference loop; both are observably identical
        (see the module docstring).
    recorder:
        Optional trace hook (:class:`repro.trace.TraceRecorder` or
        :class:`repro.trace.TraceChecker`, or any object with the same
        ``round_events`` / ``record_send_digest`` / ``record_drops``
        methods).  Both loops call the hooks where they account a send
        group or a drop; attaching one selects no other code path and
        leaves metrics unaffected.
    telemetry:
        Wall-clock instrumentation (see :mod:`repro.obs`): ``True`` or a
        :class:`~repro.obs.TelemetryRecorder` enables per-phase span
        recording; the sealed :class:`~repro.obs.RunTelemetry` is
        attached as ``result.telemetry``.  Disabled (the default) costs
        nothing: the value is normalised to ``None`` once here and every
        instrumentation site is guarded by a plain ``is not None`` test,
        so the hot path performs no calls, clock reads or allocations.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        adversary: Optional[CrashAdversary] = None,
        *,
        byzantine: frozenset[int] = frozenset(),
        max_rounds: int = 100_000,
        fast_forward: bool = True,
        optimized: bool = True,
        recorder: Optional[Any] = None,
        telemetry: Any = None,
    ):
        check_pid_order(processes)
        self.processes = list(processes)
        self.n = len(processes)
        self.adversary = adversary if adversary is not None else NoFailures()
        self.byzantine = frozenset(byzantine)
        self.max_rounds = max_rounds
        self.fast_forward = fast_forward
        self.optimized = optimized
        self.recorder = recorder
        self.telemetry = coerce_recorder(telemetry)
        self.metrics = Metrics()
        self.crashed: set[int] = set()
        self.round: int = 0

    # -- queries used by adaptive adversaries ---------------------------

    def operational(self, pid: int) -> bool:
        """Whether ``pid`` has not crashed."""
        return pid not in self.crashed

    # -- main loop -------------------------------------------------------

    def run(self, observer=None) -> RunResult:
        """Execute to completion.

        ``observer(rnd, processes)``, when given, is invoked after every
        executed round's receive phase (used by the Theorem 13
        lower-bound machinery to compare states across executions);
        passing an observer disables fast-forward so every round is
        observed.  The disable is local to this call -- the engine's
        ``fast_forward`` attribute is never mutated, so later inspection
        or reuse of the engine sees the constructor's setting.
        """
        fast_forward = self.fast_forward and observer is None
        tel = self.telemetry
        if tel is not None:
            tel.run_begin(
                backend="sim-opt" if self.optimized else "sim-ref", n=self.n
            )
        churn = self.adversary.rejoin_pids()
        for pid in churn:
            if not 0 <= pid < self.n:
                raise ProtocolError(f"rejoin scheduled for invalid pid {pid}")
            if pid in self.byzantine:
                raise ProtocolError(
                    f"adversary scheduled churn on Byzantine node {pid}"
                )
        #: the processes' start, snapshots and wake table (the reference
        #: loop only starts and rejoins through it)
        self.shard = Shard(self.processes, self.n, self.max_rounds, churn)
        self.shard.fast_forward = fast_forward
        self.shard.start(range(self.n), 0)

        if self.optimized:
            return self._loop_optimized(observer, fast_forward)

        # The reference keeps its own fixup and result assembly: the
        # spec shares no statement with the control it is compared to.
        completed, last_active_round = self._loop_reference(
            observer, fast_forward
        )

        if not completed:
            # Either max_rounds was hit, or every process crashed.
            if all(
                proc.pid in self.crashed or proc.pid in self.byzantine
                for proc in self.processes
            ):
                completed = True
                self.metrics.rounds = max(last_active_round + 1, 0)

        result = RunResult(
            processes=self.processes,
            metrics=self.metrics,
            crashed=set(self.crashed),
            byzantine=self.byzantine,
            completed=completed,
        )
        for proc in self.processes:
            if proc.decided:
                result.decisions[proc.pid] = proc.decision
        if tel is not None:
            tel.run_end(completed=completed)
            result.telemetry = tel.finish(result)
        return result

    # -- round loops ------------------------------------------------------

    def _loop_reference(self, observer, fast_forward: bool) -> tuple[bool, int]:
        """The original straight-line round loop (executable spec).

        Returns ``(completed, last_active_round)``; on non-completion the
        caller applies the everyone-crashed fixup.
        """
        recorder = self.recorder
        tel = self.telemetry
        decided_seen: set[int] = set()
        rnd = 0
        completed = False
        last_active_round = -1
        while rnd < self.max_rounds:
            self.round = rnd
            if tel is not None:
                t_round = tel.clock()

            # Rejoin phase (churn): crashed nodes scheduled to come back
            # (a halted or never-crashed pid is skipped) are reset and
            # reinstated before the crash nomination, so they
            # participate in this round's send phase.
            scheduled = self.adversary.rejoins_for_round(rnd)
            rejoining = sorted(pid for pid in scheduled if pid in self.crashed)
            self.crashed.difference_update(rejoining)
            self.shard.start(rejoining, rnd)
            if tel is not None:
                t_rejoin = tel.clock()
                if rejoining:
                    tel.span("rejoin", rnd, t_round, t_rejoin)
                    for pid in rejoining:
                        tel.point("rejoin", rnd, t_rejoin, pid=pid)

            # Crash phase: nodes crashing at this round.
            crashing = self.adversary.crashes_for_round(rnd, self)
            for pid in crashing:
                if pid in self.byzantine:
                    raise ProtocolError(
                        f"adversary attempted to crash Byzantine node {pid}"
                    )
            blocked = self.adversary.blocked_links(rnd)
            if recorder is not None:
                recorder.round_events(rnd, crashing, rejoining, blocked)
            if tel is not None:
                t_crash = tel.clock()
                tel.span("crash", rnd, t_rejoin, t_crash)
                for pid in crashing:
                    tel.point("crash", rnd, t_crash, pid=pid, keep=crashing[pid])

            # Send phase.
            inboxes: dict[int, list[tuple[int, Any]]] = {}
            delivered_any = False
            for proc in self.processes:
                pid = proc.pid
                if pid in self.crashed or proc.halted:
                    continue
                keep: Optional[int] = None
                crashes_now = pid in crashing
                if crashes_now:
                    keep = crashing[pid]
                sent = collect_sends(proc, rnd, keep, self.n)
                if crashes_now:
                    self.crashed.add(pid)
                if blocked is not None:
                    mask = blocked.get(pid)
                    if mask:
                        sent, dropped = apply_link_filter(sent, mask)
                        if dropped:
                            if pid not in self.byzantine:
                                self.metrics.record_drop(dropped)
                            if recorder is not None:
                                recorder.record_drops(rnd, pid, dropped)
                            if tel is not None:
                                tel.point(
                                    "drop", rnd, tel.clock(), pid=pid,
                                    count=dropped,
                                )
                if not sent:
                    continue
                counted = pid not in self.byzantine
                for dsts, payload in sent:
                    bits_each = payload_bits(payload)
                    self.metrics.record_send(
                        pid, len(dsts), bits_each * len(dsts), rnd, counted
                    )
                    if recorder is not None:
                        recorder.record_send_digest(
                            rnd, pid, dsts, bits_each, payload_digest(payload)
                        )
                    for dst in dsts:
                        inboxes.setdefault(dst, []).append((pid, payload))
                        delivered_any = True
            if tel is not None:
                t_send = tel.clock()
                tel.span("send", rnd, t_crash, t_send)

            # Receive phase.
            for proc in self.processes:
                pid = proc.pid
                if pid in self.crashed or proc.halted:
                    continue
                proc.receive(rnd, inboxes.get(pid, []))
            if tel is not None:
                t_deliver = tel.clock()
                tel.span("deliver", rnd, t_send, t_deliver)
                tel.span("round", rnd, t_round, t_deliver)
                for proc in self.processes:
                    if proc.decided and proc.pid not in decided_seen:
                        decided_seen.add(proc.pid)
                        tel.point("decide", rnd, t_deliver, pid=proc.pid)

            if delivered_any:
                last_active_round = rnd

            if observer is not None:
                observer(rnd, self.processes)

            # Termination check: all operational non-Byzantine halted and
            # no crashed node still has a scheduled rejoin ahead (a run
            # never ends while churn is pending; see _rejoin_pending).
            if self._all_halted() and not self._rejoin_pending(rnd):
                self.metrics.rounds = rnd + 1
                completed = True
                break

            rnd = self._advance(rnd, delivered_any, fast_forward)
        else:
            self.metrics.rounds = self.max_rounds
        return completed, last_active_round

    def _loop_optimized(self, observer, fast_forward: bool) -> RunResult:
        """The data plane under :class:`~repro.sim.rounds.RoundControl`:
        a one-host round of the engine's :class:`~repro.sim.shard.Shard`,
        whose entries go straight from its send to its deliver."""
        processes = self.processes
        crashed = self.crashed
        shard = self.shard
        record = self.recorder is not None
        tel = self.telemetry
        ctl = RoundControl(
            self,
            self.adversary,
            byzantine=self.byzantine,
            max_rounds=self.max_rounds,
            fast_forward=fast_forward,
            recorder=self.recorder,
            telemetry=tel,
        )
        rnd = ctl.begin()
        while rnd is not None:
            rejoining = ctl.rejoining(rnd)
            if rejoining:
                crashed.difference_update(rejoining)
                shard.start(rejoining, rnd)
            crashing, blocked = ctl.open(rnd, rejoining)
            for pid in crashing:
                # As in the spec, a halted pid does not crash.
                if pid not in crashed and not processes[pid].halted:
                    crashed.add(pid)
            entries, rows = shard.send(rnd, crashing, blocked or {}, record)
            delivered_any = ctl.account(rnd, rows, self.metrics)
            if tel is not None:
                ctl.phase("send", rnd)
            shard.deliver(rnd, entries)
            if tel is not None:
                ctl.phase("deliver", rnd, processes)
            if observer is not None:
                observer(rnd, processes)
            # After a quiescent round every awake process has just been
            # asked (or had its sends dropped and stays awake), so the
            # wake table holds every answer.
            rnd = ctl.close(
                rnd,
                delivered_any,
                all(proc.pid in self.byzantine for proc in shard.running),
                partial(min, shard.wake),
            )
        return ctl.seal(processes, self.metrics)

    # -- internals --------------------------------------------------------

    def _all_halted(self) -> bool:
        for proc in self.processes:
            pid = proc.pid
            if pid in self.crashed or pid in self.byzantine:
                continue
            if not proc.halted:
                return False
        return True

    def _rejoin_pending(self, rnd: int) -> bool:
        """Whether a crashed node has a rejoin scheduled after ``rnd``:
        the run cannot end before it fires (module docstring,
        "Termination"; the quiescence jump goes straight to it)."""
        for pid in self.crashed:
            if self.adversary.next_rejoin(pid, rnd) is not None:
                return True
        return False

    def _advance(self, rnd: int, delivered_any: bool, fast_forward: bool) -> int:
        """Compute the next round index, fast-forwarding when quiescent."""
        if not fast_forward or delivered_any:
            return rnd + 1
        # No deliveries this round: nothing can be triggered at rnd + 1,
        # so jump to the earliest spontaneous activity or crash event.
        horizon = self.max_rounds
        nxt = horizon
        for proc in self.processes:
            pid = proc.pid
            if pid in self.crashed or proc.halted:
                continue
            wake = proc.next_activity(rnd)
            if wake <= rnd:
                raise ProtocolError(
                    f"process {pid} declared next_activity {wake} <= {rnd}"
                )
            nxt = min(nxt, wake)
            if nxt == rnd + 1:
                return rnd + 1
        crash_event = self.adversary.next_event_round(rnd)
        if crash_event is not None:
            nxt = min(nxt, max(crash_event, rnd + 1))
        return max(rnd + 1, nxt)
