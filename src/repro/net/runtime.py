"""The asyncio round-synchronised runtime.

Execution model
---------------
Every node is one asyncio task (:func:`run_node`) hosting an unmodified
:class:`~repro.sim.process.Process`; a coordinator task
(:class:`Session`) implements the synchronous model of Section 2
as a two-phase barrier per round:

0. ``REJOIN(r)`` -- before opening the round, crashed nodes whose churn
   schedule rejoins them at ``r`` are reinstated: the node task (which
   kept its connection open awaiting exactly this) resets its process
   to the pre-``on_start`` snapshot, runs ``on_start`` again and
   reports ``REJOINED``; the coordinator restores it to the live set so
   it participates in round ``r``'s send phase.
1. ``START(r)`` -- the coordinator opens round ``r`` for every live
   node, attaching the partial-send budget ``keep`` for nodes the fault
   injector crashes this round, the node's blocked-destination set for
   link faults (omission/partition scenarios), whether a crashing node
   should await a rejoin, and whether to report trace records.  Each
   node runs its ``send(r)`` hook, normalises and truncates its sends
   through the engine's own ``collect_sends`` + ``apply_link_filter``,
   transmits one data frame per surviving point-to-point message
   *directly to the destination endpoint* (multicasts are expanded on
   the wire), counts its own messages, payload bits and dropped
   messages, and reports ``SENT`` with its per-destination counts.
2. ``DELIVER(r)`` -- once every live node has reported, the coordinator
   tells each surviving node how many round-``r`` frames to expect.
   The node collects exactly that many (data frames may already have
   arrived and are buffered by round), orders the inbox by
   ``(sender, send-order)`` -- byte-for-byte the simulator's delivery
   order -- runs ``receive(r)``, and reports ``DONE``.

The barrier guarantees the paper's synchrony: no process observes round
``r + 1`` before every round-``r`` message is delivered.  Crash faults,
link faults, churn, fast-forward over quiescent stretches, termination,
and the rounds/messages/bits/dropped accounting all mirror the
simulator's reference loop statement by statement, which is what makes
the sim/net parity tests exact rather than statistical.  When a trace
recorder or checker is attached (:mod:`repro.trace`), nodes compute the
structural digest of every payload next to the wire and ship the
records inside their ``SENT`` reports, so the coordinator records or
verifies the same events the engine would.

A barrier wait costs one suspension, not one per report: the
coordinator first drains every report already queued
(:meth:`~repro.net.transport.Endpoint.recv_nowait`) and only suspends
in ``recv`` once the queue is empty, so a burst of ``n`` reports is
consumed in one event-loop turn.  Liveness is one watchdog per session,
not a timer per frame: before suspending the coordinator notes since
when and on what it waits, and a single self-re-arming
``loop.call_later`` timer (period ``min(timeout / 4, 1 s)``) cancels a
wait older than ``timeout``; the cancellation becomes a
:class:`NetRuntimeError` naming the phase, the round, the missing pids
and each laggard's last completed span, raised within
``[timeout, timeout + period]`` of the wait's start.

Deployment shapes
-----------------
One OS process holds one hub connection
(:class:`~repro.net.transport.TCPMux`) however many nodes it hosts;
each node is an ``(instance, pid)`` endpoint bound on it, so a round's
frames leave in a few batched writes.

* :func:`run_protocol_net` -- everything (hub, coordinator, all nodes)
  in one OS process, over the in-memory or TCP transport.
* :func:`serve_tcp` + :func:`host_nodes_tcp` -- the coordinator and
  disjoint node shards in separate OS processes, meeting at a
  :class:`~repro.net.transport.TCPHub` (see ``examples/net_consensus.py``).
* :mod:`repro.serve` -- a long-lived run-server advancing *many*
  :class:`Session` objects concurrently on one event loop, their frames
  multiplexed over shared hub connections by instance tag.

A :class:`Session` is one protocol instance's coordinator state: it
owns nothing global (no hub, no loop, no transport), so any number of
sessions can run as sibling tasks over endpoints of one
:class:`~repro.net.transport.TCPMux`.  Frame *batching* in the
transport layer then coalesces the round traffic of all concurrently
advancing sessions into shared wire writes.
"""

from __future__ import annotations

import asyncio
import copy
import time
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.net.codec import encode, set_codec_probe
from repro.net.faults import NetFaultInjector, NodeStatus, RuntimeView
from repro.obs.recorder import coerce_recorder
from repro.net.transport import Endpoint, MemoryHub, TCPHub, connect_tcp, open_mux
from repro.sim.adversary import CrashAdversary, NoFailures
from repro.sim.engine import (
    RunResult,
    apply_link_filter,
    check_pid_order,
    collect_sends,
)
from repro.sim.metrics import Metrics
from repro.sim.process import Process, ProtocolError, payload_bits_cached
from repro.trace import payload_digest

__all__ = [
    "NetRuntimeError",
    "Session",
    "host_nodes_tcp",
    "run_node",
    "run_protocol_net",
    "serve_tcp",
]


class NetRuntimeError(RuntimeError):
    """A node task or transport failed; carries the remote traceback text."""


# Frame kinds (first element of every decoded frame body).
_READY = "ready"
_START = "start"
_SENT = "sent"
_DELIVER = "deliver"
_DONE = "done"
_STOP = "stop"
_ERROR = "error"
_DATA = "data"
_REJOIN = "rejoin"
_REJOINED = "rejoined"


def _status_of(proc: Process) -> tuple[bool, bool, Any]:
    return proc.halted, proc.decided, proc.decision


# -- node side ---------------------------------------------------------------


async def run_node(
    proc: Process,
    endpoint: Endpoint,
    coordinator: int,
    *,
    churn: bool = False,
    telemetry: Any = None,
) -> None:
    """Host one process on one endpoint until it halts, crashes for good
    or is stopped.

    ``churn`` marks a node with a scheduled rejoin
    (:meth:`~repro.sim.adversary.CrashAdversary.rejoin_pids`): its
    pre-``on_start`` state is snapshotted so a later ``REJOIN`` frame
    can reset it, and on crashing it keeps the connection open awaiting
    that frame instead of exiting.  Protocol errors (invalid
    destinations, broken ``next_activity`` contracts, exceptions
    escaping the hooks) are reported to the coordinator as ``ERROR``
    frames so they surface in the driving process even when this node
    lives in a remote worker.

    ``telemetry`` (a live :class:`repro.obs.TelemetryRecorder` sharing
    the coordinator's event loop, or ``None``) adds ``node.send`` /
    ``node.deliver`` spans on a per-node track.  Only the in-process
    runners wire it; nodes hosted in remote worker processes
    (:func:`host_nodes_tcp`) have no recorder, so a distributed profile
    shows the coordinator's barrier view only.
    """
    try:
        await _node_loop(proc, endpoint, coordinator, churn, telemetry)
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # report, then end this node quietly
        try:
            await endpoint.send(
                coordinator, (_ERROR, proc.pid, type(exc).__name__, str(exc))
            )
        except Exception:
            pass  # transport already down; nothing left to tell
    finally:
        await endpoint.close()


async def _await_rejoin(endpoint: Endpoint) -> bool:
    """A crashed churn node's downtime: drain and discard traffic until
    the coordinator rejoins (``True``) or stops (``False``) this node.

    Data frames arriving here were addressed to a crashed node; they are
    lost exactly as in the simulator (where crashed pids never consume
    their inbox).  Per-sink FIFO ordering guarantees every such frame
    precedes the ``REJOIN`` frame, so nothing from the downtime can leak
    into the post-rejoin inbox.
    """
    while True:
        _src, frame = await endpoint.recv()
        kind = frame[0]
        if kind == _DATA:
            continue
        if kind == _REJOIN:
            return True
        if kind == _STOP:
            return False
        raise NetRuntimeError(
            f"crashed node awaiting rejoin received unexpected frame {kind!r}"
        )


async def _node_loop(
    proc: Process,
    endpoint: Endpoint,
    coordinator: int,
    churn: bool,
    telemetry: Any = None,
) -> None:
    pid = proc.pid
    n = proc.n
    tel = coerce_recorder(telemetry)
    track = f"node-{pid}"
    # Churn nodes snapshot their pre-on_start state: a REJOIN restores
    # it (fresh deep copy per rejoin) and runs on_start again -- the
    # same reset the engine applies.
    snapshot = copy.deepcopy(proc.__dict__) if churn else None
    proc.on_start()
    await endpoint.send(coordinator, (_READY, pid, *_status_of(proc)))
    if proc.halted:
        # Halted during on_start: the coordinator never opens a round
        # for this node (the simulator's send/receive loops skip it).
        return

    # Data frames buffered by round: a peer that reaches round r + 1
    # first may deliver before this node's START(r + 1) arrives.
    buffers: dict[int, list[tuple[int, int, Any]]] = {}
    bits_cache: dict[int, tuple[Any, int]] = {}

    while True:
        src, frame = await endpoint.recv()
        kind = frame[0]
        if kind == _DATA:
            _, rnd, seq, payload = frame
            buffers.setdefault(rnd, []).append((src, seq, payload))
        elif kind == _START:
            _, rnd, crashing, keep, blocked, will_rejoin, record = frame
            bits_cache.clear()
            if tel is not None:
                t_send = tel.clock()
            if crashing:
                await _send_phase(
                    proc, endpoint, coordinator, rnd, keep, bits_cache,
                    blocked, record,
                )
                if tel is not None:
                    tel.span("node.send", rnd, t_send, tel.clock(), track=track)
                if not will_rejoin:
                    return  # crashed for good: no further activity
                if snapshot is None:
                    raise NetRuntimeError(
                        f"node {pid} is scheduled to rejoin but was hosted "
                        "without churn=True (pass the adversary's "
                        "rejoin_pids() to host_nodes_tcp/run_node)"
                    )
                if not await _await_rejoin(endpoint):
                    return  # run ended while this node was down
                # State reset: everything buffered during the downtime
                # is lost, the process restarts from its initial state.
                buffers.clear()
                proc.__dict__.clear()
                proc.__dict__.update(copy.deepcopy(snapshot))
                proc.on_start()
                await endpoint.send(
                    coordinator, (_REJOINED, pid, *_status_of(proc))
                )
                if proc.halted:
                    return
                continue
            await _send_phase(
                proc, endpoint, coordinator, rnd, None, bits_cache,
                blocked, record,
            )
            if tel is not None:
                tel.span("node.send", rnd, t_send, tel.clock(), track=track)
            if proc.halted:
                # Halted inside send(): the engine skips such a process
                # from the receive phase onwards, and the coordinator
                # (told via the SENT report) never contacts it again --
                # exit now rather than wait for a frame that won't come.
                return
        elif kind == _DELIVER:
            _, rnd, expect, need_wake = frame
            if tel is not None:
                t_deliver = tel.clock()
            inbox = await _collect_inbox(endpoint, buffers, rnd, expect)
            proc.receive(rnd, inbox)
            if tel is not None:
                tel.span(
                    "node.deliver", rnd, t_deliver, tel.clock(), track=track
                )
            wake: Optional[int] = None
            if need_wake and not proc.halted:
                wake = proc.next_activity(rnd)
            await endpoint.send(
                coordinator, (_DONE, rnd, pid, *_status_of(proc), wake)
            )
            if proc.halted:
                return
        elif kind == _STOP:
            return
        else:
            raise NetRuntimeError(f"node {pid} received unknown frame {kind!r}")


async def _send_phase(
    proc: Process,
    endpoint: Endpoint,
    coordinator: int,
    rnd: int,
    keep: Optional[int],
    bits_cache: dict,
    blocked: tuple[int, ...] = (),
    record: bool = False,
) -> None:
    """One node's send phase: normalise, validate and (for a crashing
    node) truncate the sends with the engine's own
    :func:`repro.sim.engine.collect_sends`, then remove link-blocked
    destinations with :func:`repro.sim.engine.apply_link_filter` -- the
    single sources of partial-send and omission semantics on both
    substrates -- then transmit one data frame per surviving
    point-to-point message, accumulate message/bit/dropped counts
    locally (plus per-group trace records when ``record``) and flush one
    ``SENT`` report."""
    pid = proc.pid
    groups = collect_sends(proc, rnd, keep, proc.n)
    dropped = 0
    if blocked:
        groups, dropped = apply_link_filter(groups, frozenset(blocked))
    msgs = 0
    bits = 0
    dest_counts: dict[int, int] = {}
    records: Optional[list] = [] if record else None
    for seq, (dsts, payload) in enumerate(groups):
        bits_each = payload_bits_cached(payload, bits_cache)
        if records is not None:
            # Digest computed next to the wire, so the coordinator's
            # trace records exactly what this node serialised.
            records.append((tuple(dsts), bits_each, payload_digest(payload)))
        # One frame body per send group: ``seq`` is the group index
        # (receivers order by ``(src, seq)`` with a stable sort, so
        # same-group duplicates keep their on-wire FIFO order), which
        # lets a multicast pickle its payload once, not once per
        # destination.
        body = encode((_DATA, rnd, seq, payload))
        for dst in dsts:
            await endpoint.send_encoded(dst, body)
            dest_counts[dst] = dest_counts.get(dst, 0) + 1
        msgs += len(dsts)
        bits += bits_each * len(dsts)
    await endpoint.send(
        coordinator,
        (_SENT, rnd, pid, dest_counts, msgs, bits, dropped, records,
         *_status_of(proc)),
    )


async def _collect_inbox(
    endpoint: Endpoint,
    buffers: dict[int, list[tuple[int, int, Any]]],
    rnd: int,
    expect: int,
) -> list[tuple[int, Any]]:
    """Wait until all ``expect`` round-``rnd`` frames arrived, then order
    them by ``(sender pid, per-sender send order)`` -- the simulator's
    delivery order.  The sort key excludes the payload (payloads need
    not be comparable); stability preserves on-wire FIFO order for
    same-group duplicates."""
    while len(buffers.get(rnd, ())) < expect:
        src, frame = await endpoint.recv()
        if frame[0] != _DATA:
            raise NetRuntimeError(
                f"expected data frames for round {rnd}, got {frame[0]!r}"
            )
        buffers.setdefault(frame[1], []).append((src, frame[2], frame[3]))
    pending = sorted(buffers.pop(rnd, []), key=lambda entry: (entry[0], entry[1]))
    return [(src, payload) for src, _seq, payload in pending]


# -- coordinator side --------------------------------------------------------


class Session:
    """One protocol instance's round-barrier coordinator.

    Drives the crash phase (via :class:`~repro.net.faults.NetFaultInjector`),
    the send/deliver barrier, fast-forward over quiescent rounds, the
    termination condition, and the :class:`~repro.sim.metrics.Metrics`
    accounting -- all statement-for-statement mirrors of the simulator's
    reference loop, so a seeded schedule yields identical rounds,
    message/bit totals, per-node and per-round tallies, crash sets and
    decisions on both substrates.

    A session carries no global state: it talks to its nodes through
    whatever endpoint :meth:`run` is handed, so one event loop can
    advance many sessions concurrently over per-instance endpoints of a
    shared transport (the run-server in :mod:`repro.serve` does exactly
    this, with ``instance`` tagging each session's frames on the wire).
    ``instance`` is a label only -- it never enters the barrier logic,
    which is what keeps multiplexed runs bit-identical to single runs.
    """

    def __init__(
        self,
        n: int,
        adversary: Optional[CrashAdversary] = None,
        *,
        byzantine: frozenset[int] = frozenset(),
        max_rounds: int = 100_000,
        fast_forward: bool = True,
        timeout: Optional[float] = 120.0,
        recorder: Optional[Any] = None,
        telemetry: Any = None,
        instance: int = 0,
    ):
        self.n = n
        #: protocol-instance tag; purely diagnostic in the session (the
        #: transport layer does the actual routing by it)
        self.instance = instance
        #: optional per-round progress hook ``on_round(session, rnd)``,
        #: invoked after each round's deliver barrier closes.  ``None``
        #: (the default) costs one truth test per round; the run-server
        #: uses it to stream round/metrics updates to watchers.
        self.on_round: Optional[Any] = None
        self.byzantine = frozenset(byzantine)
        self.injector = NetFaultInjector(
            adversary if adversary is not None else NoFailures(), self.byzantine
        )
        self.max_rounds = max_rounds
        self.fast_forward = fast_forward
        self.timeout = timeout
        #: trace hook (:class:`repro.trace.TraceRecorder` / ``TraceChecker``);
        #: when set, nodes are asked to ship per-group send records in
        #: their ``SENT`` reports and every fault event is forwarded
        self.recorder = recorder
        #: wall-clock instrumentation (see :mod:`repro.obs`); the
        #: coordinator's send/deliver spans include the barrier wait for
        #: the corresponding node reports
        self.telemetry = coerce_recorder(telemetry)
        self.metrics = Metrics()
        self.crashed: set[int] = set()
        self.statuses = [NodeStatus(pid) for pid in range(n)]
        self.view = RuntimeView(self.statuses, self.crashed)
        #: pid -> (phase, round, time.monotonic()) of the node's last
        #: completed report.  Always maintained (one dict store per
        #: report frame, telemetry or not) so a barrier timeout can name
        #: the laggard: "stuck in phase X of round R" plus how long ago
        #: each missing node last reported.
        self.last_progress: dict[int, tuple[str, int, float]] = {}
        # Barrier watchdog state (see _recv / _watchdog): since when and
        # on what the coordinator is suspended, None/stale while it runs.
        self._blocked_since: Optional[float] = None
        self._blocked_on: tuple[str, int, set[int]] = ("", -1, set())
        self._timed_out = False
        self._task: Optional[asyncio.Task] = None
        self._watch: Optional[asyncio.TimerHandle] = None

    async def run(self, endpoint: Endpoint) -> RunResult:
        """Execute to completion and return an engine-shaped result.

        ``result.processes`` holds the coordinator's
        :class:`~repro.net.faults.NodeStatus` records -- pid-indexed
        stand-ins carrying the ``pid`` / ``halted`` / ``decided`` /
        ``decision`` fields, enough for ``correct_pids()`` and the
        ``check_*`` predicates to work on a distributed run's result.
        The single-process runners replace them with the locally hosted
        process objects.
        """
        tel = self.telemetry
        if tel is not None:
            tel.run_begin(n=self.n)
        if self.timeout is not None:
            self._task = asyncio.current_task()
            self._watchdog()
        try:
            await self._await_ready(endpoint)
            completed, last_active_round = await self._round_loop(endpoint)
        finally:
            if self._watch is not None:
                self._watch.cancel()
            # Also on error: without STOP frames, remote node tasks stay
            # blocked in recv() and their worker processes never exit.
            # Best-effort -- the original exception must propagate even
            # if the transport is already broken.
            try:
                await self._stop_survivors(endpoint)
            except Exception:
                pass
        if not completed and all(
            pid in self.crashed or pid in self.byzantine for pid in range(self.n)
        ):
            completed = True
            self.metrics.rounds = max(last_active_round + 1, 0)
        decisions = {
            s.pid: s.decision for s in self.statuses if s.decided
        }
        result = RunResult(
            processes=tuple(self.statuses),
            metrics=self.metrics,
            crashed=set(self.crashed),
            byzantine=self.byzantine,
            completed=completed,
            decisions=decisions,
        )
        if tel is not None:
            tel.run_end(completed=completed)
            result.telemetry = tel.finish(result)
        return result

    # -- protocol steps --------------------------------------------------

    async def _recv(
        self, endpoint: Endpoint, phase: str, rnd: int, pending: set[int]
    ) -> tuple:
        """The next report frame of a barrier: whatever is already
        queued without suspending, else one watched wait.

        ``phase`` / ``rnd`` / ``pending`` say what the barrier is
        collecting; they are only read if the wait times out.
        """
        got = endpoint.recv_nowait()
        if got is None:
            self._blocked_on = (phase, rnd, pending)
            self._blocked_since = time.monotonic()
            try:
                got = await endpoint.recv()
            except asyncio.CancelledError:
                if not self._timed_out:
                    raise
                # Python >= 3.11 counts cancellation requests: take the
                # watchdog's back, and if another is outstanding (an
                # outer cancel raced it) that one wins.  3.10 has no
                # count; swallowing the CancelledError is all it takes.
                uncancel = getattr(self._task, "uncancel", None)
                if uncancel is not None and uncancel() > 0:
                    raise
                raise self._timeout_error() from None
            finally:
                self._blocked_since = None
        frame = got[1]
        if frame[0] == _ERROR:
            _, pid, kind, text = frame
            if kind == "ProtocolError":
                raise ProtocolError(text)
            raise NetRuntimeError(f"node {pid} failed with {kind}: {text}")
        return frame

    def _watchdog(self) -> None:
        """The session's one timer: cancel a barrier wait that has
        outlived ``timeout``, else re-arm.  Fires within
        ``[timeout, timeout + period]`` of the wait's start."""
        since = self._blocked_since
        if since is not None and time.monotonic() - since >= self.timeout:
            self._timed_out = True
            self._task.cancel()
            return
        self._watch = asyncio.get_running_loop().call_later(
            min(self.timeout / 4, 1.0), self._watchdog
        )

    def _timeout_error(self) -> NetRuntimeError:
        phase, rnd, pending = self._blocked_on
        where = f"session {self.instance}: " if self.instance else ""
        context = phase if rnd < 0 else f"{phase} of round {rnd}"
        return NetRuntimeError(
            f"{where}coordinator timed out after {self.timeout}s "
            f"waiting for node reports ({context}, missing pids "
            f"{sorted(pending)}; a node task or worker process died?)"
            + self._laggard_detail(pending)
        )

    def _laggard_detail(self, pending: Optional[Iterable[int]]) -> str:
        """Per-missing-pid last-completed-span lines for timeout errors.

        Built from :attr:`last_progress` (maintained on every report
        frame, so available whether or not telemetry is enabled): names
        which nodes the barrier is stuck on and what each last finished.
        """
        if not pending:
            return ""
        now = time.monotonic()
        lines = []
        for pid in sorted(pending)[:8]:
            entry = self.last_progress.get(pid)
            if entry is None:
                lines.append(f"pid {pid}: no reports received yet")
            else:
                phase, rnd, ts = entry
                where = phase if rnd < 0 else f"{phase} of round {rnd}"
                lines.append(
                    f"pid {pid}: last completed {where}, {now - ts:.1f}s ago"
                )
        more = len(list(pending)) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        return " | laggards: " + "; ".join(lines)

    async def _await_ready(self, endpoint: Endpoint) -> None:
        pending = set(range(self.n))
        while pending:
            frame = await self._recv(endpoint, "ready phase", -1, pending)
            if frame[0] != _READY:
                raise NetRuntimeError(f"expected ready, got {frame[0]!r}")
            _, pid, halted, decided, decision = frame
            pending.discard(pid)
            self._update(pid, halted, decided, decision)
            self.last_progress[pid] = ("ready", -1, time.monotonic())

    def _update(self, pid: int, halted: bool, decided: bool, decision: Any) -> None:
        status = self.statuses[pid]
        status.halted = halted
        status.decided = decided
        status.decision = decision

    async def _rejoin_phase(self, endpoint: Endpoint, rnd: int) -> list[int]:
        """Reinstate crashed churn nodes scheduled to rejoin at ``rnd``.

        Mirrors the engine's rejoin phase: only currently-crashed pids
        rejoin; each gets a ``REJOIN`` frame, resets to its snapshot,
        runs ``on_start`` and reports ``REJOINED`` with fresh status
        before the round opens (so no round-``rnd`` data frame can race
        ahead of the reset).  Returns the sorted reinstated pids.
        """
        scheduled = self.injector.rejoins_for_round(rnd)
        if not scheduled:
            return []
        rejoining = sorted(pid for pid in scheduled if pid in self.crashed)
        for pid in rejoining:
            await endpoint.send(pid, (_REJOIN, rnd))
        pending = set(rejoining)
        while pending:
            frame = await self._recv(endpoint, "rejoin phase", rnd, pending)
            if frame[0] != _REJOINED:
                raise NetRuntimeError(f"expected rejoined, got {frame[0]!r}")
            _, pid, halted, decided, decision = frame
            pending.discard(pid)
            self.crashed.discard(pid)
            self._update(pid, halted, decided, decision)
            self.statuses[pid].wake = None
            self.last_progress[pid] = ("rejoin", rnd, time.monotonic())
        return rejoining

    async def _round_loop(self, endpoint: Endpoint) -> tuple[bool, int]:
        rnd = 0
        completed = False
        last_active_round = -1
        hit_max = True
        record = self.recorder is not None
        tel = self.telemetry
        decided_seen: set[int] = set()
        while rnd < self.max_rounds:
            if tel is not None:
                t_round = tel.clock()
            rejoining = await self._rejoin_phase(endpoint, rnd)
            if tel is not None:
                t_rejoin = tel.clock()
                if rejoining:
                    tel.span("rejoin", rnd, t_round, t_rejoin)
                    for pid in rejoining:
                        tel.point("rejoin", rnd, t_rejoin, pid=pid)
            crashing = self.injector.crashes_for_round(rnd, self.view)
            blocked = self.injector.blocked_links(rnd)
            if record:
                self.recorder.round_events(rnd, crashing, rejoining, blocked)
            if tel is not None:
                t_crash = tel.clock()
                tel.span("crash", rnd, t_rejoin, t_crash)
                for pid in crashing:
                    tel.point("crash", rnd, t_crash, pid=pid, keep=crashing[pid])

            # Send phase: open the round for every live node.
            participants = [
                pid
                for pid in range(self.n)
                if pid not in self.crashed and not self.statuses[pid].halted
            ]
            for pid in participants:
                crashes_now = pid in crashing
                mask = ()
                if blocked:
                    dsts = blocked.get(pid)
                    if dsts:
                        mask = tuple(sorted(dsts))
                will_rejoin = (
                    crashes_now and self.injector.next_rejoin(pid, rnd) is not None
                )
                await endpoint.send(
                    pid,
                    (_START, rnd, crashes_now, crashing.get(pid), mask,
                     will_rejoin, record),
                )
            expected = [0] * self.n
            delivered_any = False
            pending = set(participants)
            while pending:
                frame = await self._recv(endpoint, "send phase", rnd, pending)
                if frame[0] != _SENT:
                    raise NetRuntimeError(f"expected sent, got {frame[0]!r}")
                (_, r, pid, dest_counts, msgs, bits, dropped, records,
                 halted, decided, decision) = frame
                pending.discard(pid)
                self._update(pid, halted, decided, decision)
                self.last_progress[pid] = ("send", rnd, time.monotonic())
                for dst, count in dest_counts.items():
                    expected[dst] += count
                if msgs:
                    delivered_any = True
                    self.metrics.record_send(
                        pid, msgs, bits, rnd, pid not in self.byzantine
                    )
                if dropped:
                    if pid not in self.byzantine:
                        self.metrics.record_drop(dropped)
                    if record:
                        self.recorder.record_drops(rnd, pid, dropped)
                    if tel is not None:
                        tel.point(
                            "drop", rnd, tel.clock(), pid=pid, count=dropped
                        )
                if record and records:
                    for dsts, bits_each, digest in records:
                        self.recorder.record_send_digest(
                            rnd, pid, dsts, bits_each, digest
                        )
            for pid in crashing:
                if pid in participants:
                    self.crashed.add(pid)
            if tel is not None:
                # The send span covers opening the round plus the
                # barrier wait for every live node's SENT report.
                t_send = tel.clock()
                tel.span("send", rnd, t_crash, t_send)

            # Receive phase: survivors consume their (possibly empty) inbox.
            need_wake = self.fast_forward and not delivered_any
            receivers = [
                pid
                for pid in participants
                if pid not in self.crashed and not self.statuses[pid].halted
            ]
            for pid in receivers:
                await endpoint.send(pid, (_DELIVER, rnd, expected[pid], need_wake))
            pending = set(receivers)
            while pending:
                frame = await self._recv(endpoint, "receive phase", rnd, pending)
                if frame[0] != _DONE:
                    raise NetRuntimeError(f"expected done, got {frame[0]!r}")
                _, r, pid, halted, decided, decision, wake = frame
                pending.discard(pid)
                self._update(pid, halted, decided, decision)
                self.last_progress[pid] = ("deliver", rnd, time.monotonic())
                self.statuses[pid].wake = wake
                if wake is not None and wake <= rnd:
                    raise ProtocolError(
                        f"process {pid} declared next_activity {wake} <= {rnd}"
                    )
            if tel is not None:
                # Likewise, deliver covers the DONE barrier wait.
                t_deliver = tel.clock()
                tel.span("deliver", rnd, t_send, t_deliver)
                tel.span("round", rnd, t_round, t_deliver)
                for status in self.statuses:
                    if status.decided and status.pid not in decided_seen:
                        decided_seen.add(status.pid)
                        tel.point("decide", rnd, t_deliver, pid=status.pid)

            if delivered_any:
                last_active_round = rnd

            if self.on_round is not None:
                self.on_round(self, rnd)

            # Termination: all operational non-Byzantine nodes halted and
            # no crashed node still has a scheduled rejoin ahead -- the
            # engine's rule exactly (see Engine._rejoin_pending): a
            # pending rejoin always fires before the run ends, and one at
            # or beyond max_rounds exhausts the safety bound instead.
            if all(
                self.statuses[pid].halted
                for pid in range(self.n)
                if pid not in self.crashed and pid not in self.byzantine
            ) and not self._rejoin_pending(rnd):
                self.metrics.rounds = rnd + 1
                completed = True
                hit_max = False
                break

            rnd = self._advance(rnd, delivered_any, receivers)
        if hit_max:
            self.metrics.rounds = self.max_rounds
        return completed, last_active_round

    def _rejoin_pending(self, rnd: int) -> bool:
        """Mirror of :meth:`repro.sim.engine.Engine._rejoin_pending`."""
        for pid in self.crashed:
            if self.injector.next_rejoin(pid, rnd) is not None:
                return True
        return False

    def _advance(self, rnd: int, delivered_any: bool, receivers: list[int]) -> int:
        """The engine's quiescence fast-forward over reported wake rounds."""
        if not self.fast_forward or delivered_any:
            return rnd + 1
        nxt = self.max_rounds
        for pid in receivers:
            status = self.statuses[pid]
            if status.halted or status.wake is None:
                continue
            nxt = min(nxt, status.wake)
        crash_event = self.injector.next_event_round(rnd)
        if crash_event is not None:
            nxt = min(nxt, max(crash_event, rnd + 1))
        return max(rnd + 1, nxt)

    async def _stop_survivors(self, endpoint: Endpoint) -> None:
        # Halted nodes have already detached (both hubs drop frames to
        # detached addresses), and so have permanently-crashed ones --
        # but a crashed *churn* node awaiting a rejoin that will never
        # come is still listening.  STOP every pid rather than guess
        # which ones remain attached.
        for pid in range(self.n):
            await endpoint.send(pid, (_STOP,))


# -- runners -----------------------------------------------------------------


async def _run_async(
    processes: Sequence[Process],
    adversary: Optional[CrashAdversary],
    byzantine: frozenset[int],
    max_rounds: int,
    fast_forward: bool,
    transport: str,
    host: str,
    port: int,
    timeout: Optional[float],
    recorder: Optional[Any] = None,
    telemetry: Any = None,
    batching: bool = True,
) -> RunResult:
    n = len(processes)
    tel = coerce_recorder(telemetry)
    if tel is not None:
        # Label and open the run span before any transport setup so the
        # node/coordinator spans all land inside it; install the codec
        # probe so frame encode/decode cost aggregates into the stats.
        tel.run_begin(
            backend="net" if transport == "memory" else "tcp", n=n
        )
        set_codec_probe(tel)
    hub: Any
    mux: Any
    if transport == "memory":
        hub = mux = MemoryHub()
    elif transport == "tcp":
        # One OS process, one hub connection: every address binds on the
        # same mux, so a round's frames leave in a few batched writes.
        hub = TCPHub(host, port, batching=batching)
        await hub.start()
        mux = await open_mux(host, hub.port, batching=batching)
    else:
        raise ValueError(f"unknown transport {transport!r}")
    endpoints: list[Endpoint] = [mux.endpoint(addr) for addr in range(n + 1)]
    sync = Session(
        n,
        adversary,
        byzantine=byzantine,
        max_rounds=max_rounds,
        fast_forward=fast_forward,
        timeout=timeout,
        recorder=recorder,
        telemetry=tel,
    )
    churn_pids = (
        adversary.rejoin_pids() if adversary is not None else frozenset()
    )
    node_tasks = [
        asyncio.create_task(
            run_node(
                proc,
                endpoints[proc.pid],
                n,
                churn=proc.pid in churn_pids,
                telemetry=tel,
            )
        )
        for proc in processes
    ]
    try:
        result = await sync.run(endpoints[n])
        await asyncio.gather(*node_tasks)
    finally:
        if tel is not None:
            set_codec_probe(None)
        for task in node_tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*node_tasks, return_exceptions=True)
        await endpoints[n].close()
        if transport == "tcp":
            await mux.close()
            await hub.close()
    result.processes = list(processes)
    return result


def run_protocol_net(
    processes: Sequence[Process],
    adversary: Optional[CrashAdversary] = None,
    *,
    byzantine: frozenset[int] = frozenset(),
    max_rounds: int = 100_000,
    fast_forward: bool = True,
    transport: str = "memory",
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: Optional[float] = 120.0,
    recorder: Optional[Any] = None,
    telemetry: Any = None,
    batching: bool = True,
) -> RunResult:
    """Execute ``processes`` on the net runtime in this OS process.

    The drop-in counterpart of ``Engine(processes, adversary).run()``:
    same process objects, same adversary schedules (including the
    extended omission/partition/churn surface of
    :mod:`repro.scenarios`), same
    :class:`~repro.sim.engine.RunResult` (with ``result.processes``
    holding the locally hosted instances).  ``transport`` selects the
    in-memory hub or a loopback TCP hub (real sockets, one OS process);
    ``recorder`` attaches a :mod:`repro.trace` recorder/checker;
    ``telemetry`` (see :mod:`repro.obs`) adds coordinator round/phase
    spans, per-node ``node.send``/``node.deliver`` tracks and aggregated
    codec timings, sealed onto ``result.telemetry``.  ``batching``
    (TCP only) toggles wire-write coalescing in the transport --
    delivery semantics and results are identical either way; the off
    position exists to measure the speedup (``BENCH_net.json``).
    """
    check_pid_order(processes)
    return asyncio.run(
        _run_async(
            processes,
            adversary,
            frozenset(byzantine),
            max_rounds,
            fast_forward,
            transport,
            host,
            port,
            timeout,
            recorder,
            telemetry,
            batching,
        )
    )


async def serve_tcp(
    n: int,
    adversary: Optional[CrashAdversary] = None,
    *,
    byzantine: frozenset[int] = frozenset(),
    max_rounds: int = 100_000,
    fast_forward: bool = True,
    host: str = "127.0.0.1",
    port: int = 0,
    hub: Optional[TCPHub] = None,
    timeout: Optional[float] = 120.0,
    recorder: Optional[Any] = None,
    telemetry: Any = None,
) -> RunResult:
    """Run the hub and coordinator for an ``n``-node TCP deployment.

    Node shards connect from worker processes via :func:`host_nodes_tcp`;
    this coroutine returns once the protocol terminates.  Pass a
    pre-``start()``-ed ``hub`` to bind the port race-free before
    spawning workers (read the bound port from ``hub.port``; ownership
    transfers -- this coroutine closes it).  Without ``hub``, one is
    created on ``host``/``port``; pick a fixed ``port`` the workers
    know, since an ephemeral one is not reported back.
    """
    if hub is None:
        hub = TCPHub(host, port)
        await hub.start()
    tel = coerce_recorder(telemetry)
    if tel is not None:
        tel.run_begin(backend="tcp", n=n)
        set_codec_probe(tel)
    endpoint = await connect_tcp(hub.host, hub.port, n)
    try:
        sync = Session(
            n,
            adversary,
            byzantine=byzantine,
            max_rounds=max_rounds,
            fast_forward=fast_forward,
            timeout=timeout,
            recorder=recorder,
            telemetry=tel,
        )
        return await sync.run(endpoint)
    finally:
        if tel is not None:
            set_codec_probe(None)
        await endpoint.close()
        await hub.close()


async def host_nodes_tcp(
    processes: Mapping[int, Process] | Sequence[Process],
    host: str,
    port: int,
    *,
    deadline: float = 30.0,
    churn_pids: Iterable[int] = (),
) -> None:
    """Host a shard of nodes in this OS process, dialing a remote hub.

    ``processes`` maps pid to process (or is a sequence of processes
    whose ``pid`` attributes name their addresses); every node is one
    ``(instance 0, pid)`` endpoint on this process's single multiplexed
    hub connection.  ``churn_pids`` names the pids with a
    scheduled crash-and-rejoin (the coordinator's adversary's
    ``rejoin_pids()``) so those nodes snapshot their initial state and
    survive their crash leg; workers of a churn scenario must pass it.
    Returns when every hosted node has halted, crashed for good or been
    stopped by the coordinator.
    """
    procs = (
        list(processes.values())
        if isinstance(processes, Mapping)
        else list(processes)
    )
    churn = frozenset(churn_pids)
    mux = await open_mux(host, port, deadline=deadline)
    try:
        await asyncio.gather(
            *(
                run_node(
                    proc, mux.endpoint(proc.pid), proc.n, churn=proc.pid in churn
                )
                for proc in procs
            )
        )
    finally:
        await mux.close()
