"""The asyncio round-synchronised runtime.

Execution model
---------------
A *host* (:func:`run_nodes`) is one asyncio task on one endpoint holding
a shard of unmodified :class:`~repro.sim.process.Process` objects -- all
``n`` of them in a single-process run, one shard per worker in a
distributed one.  A coordinator task (:class:`Session`) implements the
synchronous model of Section 2 as one barrier per round, and talks to
hosts, not to pids: a round costs three control frames per host and
one data frame per ordered pair of distinct hosts, whatever ``n`` and
the number of messages are -- and a host alone in its round, as in
every single-process run, costs two: ``START`` and ``DONE``.  The
model's cost is the messages and bits counted at the sender; envelopes
are the runtime's business.

0. ``READY`` / ``LAYOUT`` -- each host runs ``on_start`` for its pids
   and reports them; the coordinator learns which pids live behind which
   address from the reports and, once all ``n`` pids are accounted for,
   sends the layout back, with the session's ``fast_forward`` flag, so
   hosts can bucket their sends by destination host.
1. ``REJOIN(r)`` -- before opening the round, crashed pids whose churn
   schedule rejoins them at ``r`` are reinstated: their host (which
   stayed attached for exactly this) restarts each from its snapshot
   (:meth:`~repro.sim.shard.Shard.start`) and reports ``REJOINED``; the
   coordinator restores them to the live set so they participate in
   round ``r``'s send phase.
2. ``START(r)`` -- the coordinator opens round ``r`` on every host with
   a live pid and names those hosts.  The frame also carries the
   round's faults for the host's live pids: the partial-send budget
   ``keep`` of each pid the adversary crashes now, the blocked
   destinations of each pid a link fault (omission/partition scenarios)
   names, and which crashing pids should await a rejoin.  The host runs
   its shard's send phase (:meth:`~repro.sim.shard.Shard.send`, the
   one the engine runs) under those faults, splits the resulting
   entries by destination host and ships them as ``DATA`` bundles
   (pickled once): every *other* opened host gets at least one, empty
   when there is nothing for it, and the last bundle to each host is
   flagged.  Mail for its own pids never reaches the hub: it is pickled
   and unpickled in place, so its receivers hold a copy as every
   receiver does.  It then reports one ``SENT`` with the shard's rows
   (a pid that sent or dropped something, or stops running) and a
   status row per such pid whose status moved; any other pid it called
   is still running and awake, so ``DONE`` carries its status.  A host
   that ships no bundle -- it is the round's only opened host -- and
   has a pid left running sends no ``SENT``: its ``DONE`` carries the
   same two lists.
3. Receive -- a host whose pids are not all gone collects one flagged
   last bundle from each host that ships to it (bundles may arrive
   before its own ``START`` and are buffered), puts their entries in
   ``(sender, send order)`` and runs its shard's receive phase
   (:meth:`~repro.sim.shard.Shard.deliver`), which builds each inbox
   -- byte-for-byte the simulator's delivery order -- and discards
   what was addressed to a crashed or halted pid.  It reports one
   ``DONE`` with a row per pid whose status moved and, after a round in
   which it neither sent nor received a message, its earliest wake.
   The coordinator books each ``SENT``'s rows, and those a ``DONE``
   carries, through :meth:`~repro.sim.rounds.RoundControl.account`, as
   the engine books its shard's, collects ``SENT`` and ``DONE`` in any
   host order and closes the round once every opened host has reported
   its send phase and every host with a surviving pid its receive
   phase.

Reports carry news only: a status moved when any of ``halted`` and
``decided`` differs from the pid's last row or its ``decision`` is not
the same object (an unsure case ships a row), and a pid without a row
keeps the status of its last one.  The coordinator stamps barrier
progress once per phase reported, per host.

Frames (``C`` is the coordinator; every status is ``halted, decided,
decision``)::

    READY     host -> C     [(pid, *status), ...]
    LAYOUT    C -> host     [host address of pid 0, of pid 1, ...],
                            fast_forward
    REJOIN    C -> host     round, [pid, ...]
    REJOINED  host -> C     round, [(pid, *status), ...]
    START     C -> host     round, {pid: keep} crashing, {pid: mask},
                            [crashing pid to await a rejoin, ...],
                            record, [opened host, ...]
    DATA      host -> host  round, [(src, seq, dsts, payload), ...], last
                            (dsts None: every pid behind the receiving
                            host but src)
    SENT      host -> C     round, [(pid, msgs, bits, dropped, records),
                            ...] per pid that sent or dropped something
                            or stops running, [(pid, *status), ...] per
                            such pid whose status moved
    DONE      host -> C     round, [(pid, *status), ...] per pid whose
                            status moved, earliest wake (None after a
                            round the host sent or received a message
                            in), SENT's two lists when it is folded in
                            (else None)
    STOP      C -> host     --
    ERROR     host -> C     pid whose hook raised (None: the host
                            itself), exception class name, text

A ``DATA`` bundle holds the shard's entries with a destination behind
the receiving host: the sender, the group's index in the sender's send
order, those destinations and the payload.  A broadcast entry (``dsts``
None, the engine's column) goes as it is to every host with a pid
other than its sender, and the receiving shard delivers it as its
column; any other entry is split by host once per destination tuple
object per pid.  A bundle closes at :data:`_BUNDLE_PAIRS` ``(group,
destination)`` pairs (a ``None`` entry counts ``n - 1``) or
:data:`_BUNDLE_BYTES` of counted payload, whichever comes first, and
``last`` marks a sender's final bundle to that host in the round (the
hubs keep each sender-receiver stream in order).  A host's own mail is
one bundle, never cut or shipped.  Receivers behind one host are handed
the *same* decoded payload object (as ``Engine`` hands every receiver
the sender's object); receivers behind different hosts, and the sender,
never share one.

The barrier guarantees the paper's synchrony: no process observes round
``r + 1`` before every round-``r`` message is delivered.  Who rejoins,
who crashes, which links are blocked, fast-forward over quiescent
stretches and termination are decided by the session's
:class:`~repro.sim.rounds.RoundControl`, as on every backend, and what
a host's pids do in a round is its shard's two calls, the statements
the engine runs.  That makes the sim/net parity tests exact rather than
statistical -- and independent of how pids are dealt to hosts.

Wake table
----------
A round costs what it delivers, not ``n``.  Each host drives one
:class:`~repro.sim.shard.Shard` of its own pids -- the engine's send
and receive phases, start, churn snapshot, wake table and sleep rule
(stated in :mod:`repro.sim.shard`) -- so a net round makes exactly the
hook calls a sim-opt round makes.  The coordinator keeps the live pids
per host and the set of running non-Byzantine pids, so its share of a
round is O(hosts + rows), with no walk over ``range(n)``; the earliest
wakes the hosts report in ``DONE`` are where a quiescent round jumps
to.  When a trace recorder or checker is attached (:mod:`repro.trace`),
the shard digests every payload next to the wire and the host ships
the records in its ``SENT`` rows, so the coordinator records or
verifies the same events the engine does.

A barrier wait costs one suspension, not one per report: the
coordinator first drains every report already queued
(:meth:`~repro.net.transport.Endpoint.recv_nowait`) and only suspends
in ``recv`` once the queue is empty.  Liveness is one watchdog per
session, not a timer per frame: before suspending the coordinator notes
since when and on what it waits, and a single self-re-arming
``loop.call_later`` timer (period ``min(timeout / 4, 1 s)``) cancels a
wait older than ``timeout``; the cancellation becomes a
:class:`NetRuntimeError` naming the phase, the round, the missing pids
(a silent host lists all of its live pids) and each laggard's last
completed span, raised within ``[timeout, timeout + period]`` of the
wait's start.  Hosts wait on each other's bundles, so ``SENT`` is the
progress mark that tells a dead host from the peers it blocks: one
that dies before shipping round ``r`` is the only one missing from
round ``r``'s send phase.  A host alone in its round blocks nobody,
which is why it may fold that mark into ``DONE``.

Deployment shapes
-----------------
The process that owns the hub binds on it directly
(``hub.endpoint(...)``); every other OS process holds one hub
connection (:class:`~repro.net.transport.TCPMux`) and binds on that
(``mux.endpoint(...)``).  Either way the binding is one
:class:`~repro.net.transport.Endpoint`.  Per session there is one host
endpoint per process -- by convention at the lowest pid it hosts; the
coordinator sits at address ``n``.

Each runner drives its :class:`Session` through :func:`drive_session`,
which binds the coordinator, hosts one shard at address 0 or none
(``()``: the hosts dial in), awaits the run and tears both down:

* :func:`run_protocol_net` -- everything (hub, coordinator, one host of
  all ``n`` processes) in one OS process, over the in-memory or TCP
  transport.
* ``drive_session(Session(n, adversary, ...), hub, ())`` +
  :func:`host_nodes_tcp` -- the coordinator (bound locally on a
  :class:`~repro.net.transport.TCPHub` the caller owns and closes) and
  disjoint shards in separate OS processes dialling that hub (see
  ``examples/net_consensus.py``).
* :mod:`repro.serve` -- a long-lived run-server advancing *many*
  :class:`Session` objects concurrently on one event loop, bound on the
  server's own hub; with worker processes their frames are multiplexed
  over the workers' hub connections by instance tag.

A :class:`Session` is one protocol instance's coordinator state: it
owns nothing global (no hub, no loop, no transport), so any number of
sessions can run as sibling tasks over endpoints of one hub or one
:class:`~repro.net.transport.TCPMux`.  Frame *batching* in the
transport layer then coalesces the round traffic of all concurrently
advancing sessions into shared wire writes.
"""

from __future__ import annotations

import asyncio
import sys
import time
from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.net.codec import MAX_FRAME_BYTES, decode, encode, set_codec_probe
from repro.net.faults import NodeStatus, RuntimeView
from repro.obs.recorder import coerce_recorder
from repro.net.transport import Endpoint, MemoryHub, TCPHub, open_mux
from repro.sim.adversary import CrashAdversary, NoFailures
from repro.sim.engine import RunResult, check_pid_order
from repro.sim.metrics import Metrics
from repro.sim.process import Process, ProtocolError, payload_bits_cached
from repro.sim.rounds import RoundControl
from repro.sim.shard import Shard

__all__ = [
    "NetRuntimeError",
    "Session",
    "drive_session",
    "host_nodes_tcp",
    "run_nodes",
    "run_protocol_net",
]


class NetRuntimeError(RuntimeError):
    """A host task or transport failed; carries the remote error text."""


# Frame kinds (first element of every decoded frame body).
_READY = "ready"
_LAYOUT = "layout"
_START = "start"
_SENT = "sent"
_DONE = "done"
_STOP = "stop"
_ERROR = "error"
_DATA = "data"
_REJOIN = "rejoin"
_REJOINED = "rejoined"

#: ``(group, destination)`` pairs at which a ``DATA`` bundle closes and
#: the next one opens, so that dense flooding at large ``n`` cannot build
#: one frame beyond :data:`~repro.net.codec.MAX_FRAME_BYTES`.
_BUNDLE_PAIRS = 65_536

#: Counted payload bytes (the model's ``payload_bits`` / 8, each group's
#: payload once) at which a bundle closes as well: many unicast groups
#: with large payloads stay under the pair cap, and sent one frame per
#: message -- as the model has it -- none of them would be oversized.
#: A fraction of the frame limit, since the pickled size is not the
#: counted one.
_BUNDLE_BYTES = MAX_FRAME_BYTES // 16

#: ``START``'s fault fields ``(crashing, masks, awaiting)`` for a host
#: whose live pids have none.
_NO_FAULT = ({}, {}, ())


def _status_of(proc: Process) -> tuple[bool, bool, Any]:
    return proc.halted, proc.decided, proc.decision


# -- host side ---------------------------------------------------------------


def _bundles(
    entries: list[tuple], bits_cache: dict[int, tuple[Any, int]], n: int
) -> Iterable[list[tuple]]:
    """Cut one destination host's ``(src, seq, dsts, payload)`` entries
    into bundles, closing each once it holds :data:`_BUNDLE_PAIRS`
    ``(group, dst)`` pairs (a broadcast entry, ``dsts`` None, counts
    ``n - 1``) or :data:`_BUNDLE_BYTES` of payload (sizes from the send
    phase's ``bits_cache``)."""
    bundle: list[tuple] = []
    pairs = size = 0
    for entry in entries:
        bundle.append(entry)
        pairs += n - 1 if entry[2] is None else len(entry[2])
        size += payload_bits_cached(entry[3], bits_cache) >> 3
        if pairs >= _BUNDLE_PAIRS or size >= _BUNDLE_BYTES:
            yield bundle
            bundle, pairs, size = [], 0, 0
    if bundle:
        yield bundle


class _Host:
    """One shard's state between frames; see :func:`run_nodes`."""

    def __init__(
        self,
        processes: Iterable[Process],
        endpoint: Endpoint,
        coordinator: int,
        churn_pids: Iterable[int],
        telemetry: Any,
    ):
        procs = list(processes)
        # The horizon: any int above every round, since the control caps
        # a reported wake at max_rounds (which a host does not know).
        n = procs[0].n if procs else 0
        self.shard = Shard(procs, n, sys.maxsize, churn_pids)
        self.endpoint = endpoint
        self.coordinator = coordinator
        self.tel = coerce_recorder(telemetry)
        #: the track of this host's ``node.send`` / ``node.deliver`` spans
        self.track = f"host-{endpoint.address}"
        #: crashed local pids awaiting their REJOIN: with the shard's
        #: running pids, who the coordinator may still address (the
        #: host ends when neither is left)
        self.awaiting: set[int] = set()
        #: pid -> host address (LAYOUT)
        self.host_of: Sequence[int] = ()
        #: the hosts a broadcast of a pid here goes to: every host with
        #: a pid other than the sender (LAYOUT)
        self.fanout: tuple[int, ...] = ()
        #: pid -> (its last multicast destination tuple, that tuple's
        #: ``(host, destinations)`` split)
        self.routes: dict[int, tuple] = {}
        #: pid -> the ``(halted, decided, decision)`` of its last row
        self.reported: dict[int, tuple[bool, bool, Any]] = {}
        # One round's bundles and how many of them were flagged last: a
        # peer that got its START(r) first may ship before this host's
        # START(r) arrives.
        self.bundle_round = -1
        self.bundles: list[list[tuple]] = []
        self.lasts = 0
        #: flagged last bundles the open round's receive phase waits
        #: for, None when none is pending
        self.due: Optional[int] = None
        #: whether a pid of this host sent a message in the open round
        self.sent_any = False
        #: the open round's ``SENT`` body ``(rows, statuses)`` when its
        #: ``DONE`` carries it (no peer host waits on a bundle from here)
        self.folded: Optional[tuple[list, list]] = None

    async def run(self) -> None:
        send = self.endpoint.send
        await send(self.coordinator, (_READY, self._boot(sorted(self.shard.procs))))
        while self.shard.running or self.awaiting:
            _src, frame = await self.endpoint.recv()
            kind = frame[0]
            if kind == _DATA:
                self._buffer(*frame[1:])
            elif kind == _START:
                await self._send_phase(*frame[1:])
            elif kind == _REJOIN:
                _, rnd, pids = frame
                await send(
                    self.coordinator, (_REJOINED, rnd, self._boot(pids, rnd))
                )
            elif kind == _LAYOUT:
                _, self.host_of, self.shard.fast_forward = frame
                pids_at = Counter(self.host_of)
                me = self.endpoint.address
                self.fanout = tuple(
                    host for host, pids in pids_at.items() if host != me or pids > 1
                )
            elif kind == _STOP:
                return
            else:
                raise NetRuntimeError(
                    f"host of pids {sorted(self.shard.procs)} received unknown "
                    f"frame {kind!r}"
                )
            if self.due is not None and self.lasts >= self.due:
                await self._receive_phase()

    def _boot(self, pids: Iterable[int], rnd: int = 0) -> list[tuple]:
        """Start ``pids`` at ``rnd`` on the shard and return their
        ``(pid, *status)`` rows; a halted pid is never addressed."""
        pids = list(pids)
        self.awaiting.difference_update(pids)
        self.shard.start(pids, rnd)
        rows = []
        for pid in pids:
            self.reported[pid] = status = _status_of(self.shard.procs[pid])
            rows.append((pid, *status))
        return rows

    def _news(self, procs: Iterable[Process]) -> list[tuple]:
        """The ``(pid, *status)`` rows of ``procs`` whose ``(halted,
        decided, decision)`` moved since their last row -- the decision
        compared by identity, so that an unsure case is a change --
        noting each as reported."""
        rows = []
        reported = self.reported
        for proc in procs:
            last = reported[proc.pid]
            if (
                proc.halted is last[0]
                and proc.decided is last[1]
                and proc.decision is last[2]
            ):
                continue
            reported[proc.pid] = status = _status_of(proc)
            rows.append((proc.pid, *status))
        return rows

    def _buffer(self, rnd: int, bundle: list[tuple], last: bool) -> None:
        if rnd != self.bundle_round:
            # A bundle or START of a later round proves every earlier
            # round closed: what is still held was addressed to pids
            # that had crashed or halted, and is lost exactly as in the
            # simulator (where such pids never consume their inbox).
            self.bundle_round, self.bundles, self.lasts = rnd, [], 0
        if bundle:
            self.bundles.append(bundle)
        self.lasts += last

    async def _send_phase(
        self,
        rnd: int,
        crashing: Mapping[int, Optional[int]],
        masks: Mapping[int, frozenset[int]],
        awaiting: Sequence[int],
        record: bool,
        opened: Sequence[int],
    ) -> None:
        """The shard's send phase (:meth:`repro.sim.shard.Shard.send`)
        under this round's faults, its entries routed by destination
        host (:meth:`_route`).  They leave as ``DATA`` bundles, at least
        one to every other ``opened`` host, the last one to each
        flagged; own mail goes through the codec into the buffer.  The
        send-phase report -- the shard's rows and the status rows of
        their pids that moved -- is one ``SENT``, or, with no other host
        opened, left for ``DONE`` to carry; the round's receive phase is
        due unless no pid here is left running."""
        shard = self.shard
        for pid in awaiting:
            if pid not in shard.snapshots:
                shard.at = pid
                raise NetRuntimeError(
                    f"node {pid} is scheduled to rejoin but was hosted "
                    "without churn (pass the adversary's rejoin_pids() "
                    "as churn_pids to host_nodes_tcp/run_nodes)"
                )
        self.awaiting.update(awaiting)
        tel = self.tel
        if tel is not None:
            t_send = tel.clock()
        entries, rows = shard.send(rnd, crashing, masks, record)
        out = self._route(entries)
        if tel is not None:
            tel.span("node.send", rnd, t_send, tel.clock(), track=self.track)
        # A pid called without news is still running and awake, so the
        # receive phase calls it and DONE carries its status.
        statuses = self._news(shard.procs[row[0]] for row in rows)
        # Mail for a host that is not opened is for crashed pids: lost.
        me = self.endpoint.address
        for host in opened:
            if host == me:
                continue
            bundles = list(_bundles(out.get(host, ()), shard.bits_cache, shard.n))
            bundles = bundles or [[]]
            last = len(bundles) - 1
            for i, bundle in enumerate(bundles):
                await self.endpoint.send_encoded(
                    host, self._encode(rnd, bundle, i == last)
                )
        own = out.get(me)
        if own:
            # Own mail never reaches the hub, but is pickled all the same:
            # its receivers share one decoded copy, not the sender's object.
            self._buffer(*decode(self._encode(rnd, own, False))[1:])
        if shard.running:
            # Open this round's buffer (dropping a stale round's mail).
            self._buffer(rnd, [], False)
            self.due = len(opened) - 1
            self.sent_any = bool(entries)
            if not self.due:
                # No peer waits on a bundle from here, so DONE carries
                # the send report.
                self.folded = (rows, statuses)
                return
        await self.endpoint.send(self.coordinator, (_SENT, rnd, rows, statuses))

    def _route(self, entries: list[tuple]) -> dict[int, list[tuple]]:
        """The shard's ``(src, seq, dsts, payload)`` entries by
        destination host.  A broadcast entry (``dsts`` None) goes as it
        is to each host in :attr:`fanout`, whose receivers take it as
        their column; any other is split by destination host, once per
        destination tuple object per sender.  A payload is pickled once
        per destination host, not once per destination."""
        out: defaultdict[int, list[tuple]] = defaultdict(list)
        host_of, routes, fanout = self.host_of, self.routes, self.fanout
        for entry in entries:
            src, seq, dsts, payload = entry
            if dsts is None:
                for host in fanout:
                    out[host].append(entry)
            elif len(dsts) == 1:
                out[host_of[dsts[0]]].append(entry)
            else:
                route = routes.get(src)
                if route is None or route[0] is not dsts:
                    split: dict[int, list[int]] = {}
                    for dst in dsts:
                        split.setdefault(host_of[dst], []).append(dst)
                    route = (dsts, [(host, tuple(local)) for host, local in split.items()])
                    if type(dsts) is tuple:
                        routes[src] = route
                for host, local in route[1]:
                    out[host].append((src, seq, local, payload))
        return out

    def _encode(self, rnd: int, bundle: list[tuple], last: bool) -> bytes:
        try:
            return encode((_DATA, rnd, bundle, last))
        except Exception:
            # Re-raise against the pid whose payload does not serialise.
            for src, _seq, _dsts, payload in bundle:
                try:
                    encode(payload)
                except Exception:
                    self.shard.at = src
                    raise
            raise

    async def _receive_phase(self) -> None:
        """With every bundle of the open round in, run the shard's
        receive phase (:meth:`repro.sim.shard.Shard.deliver`) over them
        in ``(sender, send order)`` -- each bundle is already in that
        order, so one bundle needs no sort, and the key excludes the
        payload, which need not be comparable -- and report ``DONE``: a
        row per pid whose status moved, and the earliest wake of the
        pids still running after a round this host sent and received
        nothing in (only then may the round have delivered nothing, the
        one case the coordinator reads it), and the send-phase report
        if no ``SENT`` carried it."""
        tel = self.tel
        rnd, bundles = self.bundle_round, self.bundles
        self.bundles, self.due = [], None
        if len(bundles) == 1:
            entries = bundles[0]
        else:
            entries = sorted(chain.from_iterable(bundles), key=itemgetter(0, 1))
        shard = self.shard
        if tel is not None:
            t_deliver = tel.clock()
        called = shard.deliver(rnd, entries)
        if tel is not None:
            tel.span("node.deliver", rnd, t_deliver, tel.clock(), track=self.track)
        quiet = shard.fast_forward and not (self.sent_any or entries)
        earliest = min(shard.wake) if quiet else None
        folded, self.folded = self.folded, None
        await self.endpoint.send(
            self.coordinator, (_DONE, rnd, self._news(called), earliest, folded)
        )


async def run_nodes(
    processes: Iterable[Process],
    endpoint: Endpoint,
    coordinator: int,
    *,
    churn_pids: Iterable[int] = (),
    telemetry: Any = None,
) -> None:
    """Host a shard of processes in this task, on one endpoint, until
    each has halted or crashed for good, or the coordinator stops the
    run.

    ``endpoint`` may sit at any address no other host or the coordinator
    uses (the runners bind the shard's lowest pid); the coordinator
    learns which pids live behind it from the ``READY`` report.  (Only
    a host at that conventional address is stopped when it attaches
    after the coordinator already gave up on the ready phase.)
    ``churn_pids`` names the pids with a scheduled rejoin
    (:meth:`~repro.sim.adversary.CrashAdversary.rejoin_pids`): the
    pre-``on_start`` state of those hosted here is snapshotted so a
    later ``REJOIN`` frame can reset it.  Protocol errors (invalid
    destinations, broken ``next_activity`` contracts, exceptions
    escaping the hooks) are reported to the coordinator as ``ERROR``
    frames naming the pid whose hook raised, so they surface in the
    driving process even when this host lives in a remote worker.

    ``telemetry`` (a live :class:`repro.obs.TelemetryRecorder` sharing
    the coordinator's event loop, or ``None``) adds one ``node.send``
    and one ``node.deliver`` span per round on the host's
    ``host-<address>`` track: its shard's send phase with the routing,
    and its receive phase.  Only the in-process runners wire it; hosts
    in remote worker processes (:func:`host_nodes_tcp`) have no
    recorder, so a distributed profile shows the coordinator's barrier
    view only.
    """
    host = _Host(processes, endpoint, coordinator, churn_pids, telemetry)
    try:
        await host.run()
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # report, then end this host quietly
        try:
            await endpoint.send(
                coordinator, (_ERROR, host.shard.at, type(exc).__name__, str(exc))
            )
        except Exception:
            pass  # transport already down; nothing left to tell
    finally:
        await endpoint.close()


# -- coordinator side --------------------------------------------------------


class Session:
    """One protocol instance's round-barrier coordinator.

    A data plane under :class:`~repro.sim.rounds.RoundControl`
    (:attr:`control`), which consults the adversary through the
    session's :class:`~repro.net.faults.RuntimeView` and decides
    rejoins, crashes, link masks, termination and fast-forward, and
    books the hosts' send-phase rows into the
    :class:`~repro.sim.metrics.Metrics`; the session drives the rejoin
    and round barriers.  That a seeded
    schedule yields identical rounds, message/bit totals, per-node and
    per-round tallies, crash sets and decisions on both substrates is
    pinned by the parity tests, not by shared statements with the
    reference loop.

    A session carries no global state: it talks to its hosts through
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
        #: invoked after each round's barrier closes.  ``None``
        #: (the default) costs one truth test per round; the run-server
        #: uses it to stream round/metrics updates to watchers.
        self.on_round: Optional[Any] = None
        self.byzantine = frozenset(byzantine)
        self.adversary = adversary if adversary is not None else NoFailures()
        self.max_rounds = max_rounds
        self.fast_forward = fast_forward
        self.timeout = timeout
        #: trace hook (:class:`repro.trace.TraceRecorder` / ``TraceChecker``);
        #: when set, hosts are asked to ship per-group send digests in
        #: their ``SENT`` rows and every fault event is forwarded
        self.recorder = recorder
        #: wall-clock instrumentation (see :mod:`repro.obs`); the
        #: coordinator's send/deliver spans include the barrier wait for
        #: the corresponding host reports
        self.telemetry = coerce_recorder(telemetry)
        self.metrics = Metrics()
        self.crashed: set[int] = set()
        self.statuses = [NodeStatus(pid) for pid in range(n)]
        self.view = RuntimeView(self.statuses, self.crashed)
        #: the round's control plane; constructing it validates the
        #: adversary's churn pids, so a bad schedule fails here as it
        #: does in ``Engine.run``
        self.control = RoundControl(
            self.view,
            self.adversary,
            byzantine=self.byzantine,
            max_rounds=max_rounds,
            fast_forward=fast_forward,
            recorder=recorder,
            telemetry=self.telemetry,
        )
        #: host address -> (phase, round, time.monotonic()) of the
        #: host's last report frame.  Always maintained (one dict store
        #: per report frame, telemetry or not) so a barrier timeout can
        #: name the laggard: "stuck in phase X of round R" plus how long
        #: ago each missing node's host last reported.
        self.last_progress: dict[int, tuple[str, int, float]] = {}
        #: pid -> address of the host it lives behind, learnt from the
        #: ``READY`` reports
        self.host_of: dict[int, int] = {}
        #: host address -> its live pids (neither crashed nor halted):
        #: a round opens on the hosts where this is not empty
        self.live_at: dict[int, set[int]] = {}
        #: live non-Byzantine pids: the run ends when none is left
        self.running: set[int] = set()
        # Barrier watchdog state (see _recv / _watchdog): since when and
        # on what the coordinator is suspended, None/stale while it runs.
        self._blocked_since: Optional[float] = None
        self._blocked_on: tuple[str, int, Callable[[], Iterable[int]]] = (
            "", -1, tuple
        )
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
            await self._round_loop(endpoint)
        finally:
            if self._watch is not None:
                self._watch.cancel()
            # Also on error: without STOP frames, remote host tasks stay
            # blocked in recv() and their worker processes never exit.
            # Best-effort -- the original exception must propagate even
            # if the transport is already broken.
            try:
                await self._stop_survivors(endpoint)
            except Exception:
                pass
        return self.control.seal(tuple(self.statuses), self.metrics)

    # -- protocol steps --------------------------------------------------

    async def _recv(
        self,
        endpoint: Endpoint,
        want: tuple[str, ...],
        phase: str,
        rnd: int,
        missing: Callable[[], Iterable[int]],
    ) -> tuple[int, tuple]:
        """The next report of a barrier, of a kind in ``want``, as
        ``(host, frame)``: whatever is already queued without
        suspending, else one watched wait.

        ``phase`` / ``rnd`` say what the barrier is collecting and
        ``missing()`` from which pids; they are only read if the wait
        times out.
        """
        got = endpoint.recv_nowait()
        if got is None:
            self._blocked_on = (phase, rnd, missing)
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
        src, frame = got
        if frame[0] == _ERROR:
            _, pid, kind, text = frame
            if kind == "ProtocolError":
                raise ProtocolError(text)
            who = f"host {src}" if pid is None else f"node {pid}"
            raise NetRuntimeError(f"{who} failed with {kind}: {text}")
        if frame[0] not in want:
            expected = " or ".join(want)
            raise NetRuntimeError(f"expected {expected}, got {frame[0]!r}")
        return got

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
        phase, rnd, missing = self._blocked_on
        pending = set(missing())
        where = f"session {self.instance}: " if self.instance else ""
        context = phase if rnd < 0 else f"{phase} of round {rnd}"
        return NetRuntimeError(
            f"{where}coordinator timed out after {self.timeout}s "
            f"waiting for node reports ({context}, missing pids "
            f"{sorted(pending)}; a host task or worker process died?)"
            + self._laggard_detail(pending)
        )

    def _laggard_detail(self, pending: Optional[Iterable[int]]) -> str:
        """Per-missing-pid last-completed-span lines for timeout errors.

        Built from :attr:`last_progress` (stamped on every report frame,
        so available whether or not telemetry is enabled) through
        :attr:`host_of`: names which nodes the barrier is stuck on and
        what the host of each last finished.
        """
        if not pending:
            return ""
        now = time.monotonic()
        lines = []
        for pid in sorted(pending)[:8]:
            entry = self.last_progress.get(self.host_of.get(pid))
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
        """Collect every pid's ``READY`` row, learning the pid -> host
        layout from the reports' source addresses, then send the layout
        back once so hosts can bucket their sends by destination."""
        pending = set(range(self.n))
        while pending:
            host, frame = await self._recv(
                endpoint, (_READY,), "ready phase", -1, lambda: pending
            )
            self.last_progress[host] = ("ready", -1, time.monotonic())
            self.live_at.setdefault(host, set())
            for pid, *status in frame[1]:
                pending.discard(pid)
                self.host_of[pid] = host
                self._enlist(host, pid)
                self._update(host, pid, *status)
        layout = [self.host_of[pid] for pid in range(self.n)]
        body = encode((_LAYOUT, layout, self.fast_forward))
        for host in sorted(set(layout)):
            await endpoint.send_encoded(host, body)

    def _enlist(self, host: int, pid: int) -> None:
        """Count ``pid`` live behind ``host`` (until :meth:`_update`
        reads it halted or the send phase crashes it)."""
        self.live_at[host].add(pid)
        if pid not in self.byzantine:
            self.running.add(pid)

    def _update(
        self, host: int, pid: int, halted: bool, decided: bool, decision: Any
    ) -> None:
        """One report row of ``pid`` behind ``host``: its status; a
        halted pid leaves the live sets for good.  A pid with no row in
        a report kept the status of its last one."""
        status = self.statuses[pid]
        status.halted = halted
        status.decided = decided
        status.decision = decision
        if halted:
            self.live_at[host].discard(pid)
            self.running.discard(pid)

    async def _rejoin_phase(
        self, endpoint: Endpoint, rnd: int, rejoining: list[int]
    ) -> None:
        """Reinstate the crashed churn nodes ``rejoining`` at ``rnd``.

        Their hosts get one ``REJOIN`` frame each, reset the named pids
        to their snapshots, run ``on_start`` and report ``REJOINED``
        with fresh status before the round opens (so no round-``rnd``
        data frame can race ahead of the reset).
        """
        shards: dict[int, list[int]] = {}
        for pid in rejoining:
            shards.setdefault(self.host_of[pid], []).append(pid)
        for host, pids in shards.items():
            await endpoint.send(host, (_REJOIN, rnd, pids))
        pending = set(rejoining)
        while pending:
            host, frame = await self._recv(
                endpoint, (_REJOINED,), "rejoin phase", rnd, lambda: pending
            )
            self.last_progress[host] = ("rejoin", rnd, time.monotonic())
            for pid, *status in frame[2]:
                pending.discard(pid)
                self.crashed.discard(pid)
                self._enlist(host, pid)
                self._update(host, pid, *status)

    def _faults(
        self,
        rnd: int,
        crashing: Mapping[int, Optional[int]],
        blocked: Optional[Mapping[int, frozenset[int]]],
    ) -> dict[int, tuple[dict, dict, list]]:
        """``START``'s fault fields per host, for its live pids:
        ``crashing`` (pid -> ``keep``) and ``masks`` (pid -> blocked
        destinations), as :meth:`repro.sim.shard.Shard.send` takes them,
        and ``awaiting``, the crashing pids with a rejoin ahead."""
        faults: dict[int, tuple[dict, dict, list]] = {}

        def fields(pid: int) -> Optional[tuple[dict, dict, list]]:
            host = self.host_of.get(pid)
            if host is None or pid not in self.live_at[host]:
                return None
            return faults.setdefault(host, ({}, {}, []))

        for pid, keep in crashing.items():
            at = fields(pid)
            if at is not None:
                at[0][pid] = keep
                if self.adversary.next_rejoin(pid, rnd) is not None:
                    at[2].append(pid)
        for pid, mask in (blocked or {}).items():
            at = fields(pid) if mask else None
            if at is not None:
                at[1][pid] = mask
        return faults

    def _book_sent(
        self,
        host: int,
        rnd: int,
        rows: list[tuple],
        statuses: list[tuple],
        crashed: Iterable[int],
    ) -> bool:
        """Book ``host``'s send-phase report (a ``SENT``, or the one a
        ``DONE`` carries): its status rows, its shard's rows through
        :meth:`~repro.sim.rounds.RoundControl.account`, and the crash of
        each of its pids the round's faults crashed; whether a message
        was sent."""
        self.last_progress[host] = ("send", rnd, time.monotonic())
        for pid, *status in statuses:
            self._update(host, pid, *status)
        sent = self.control.account(rnd, rows, self.metrics)
        live = self.live_at[host]
        for pid in crashed:
            self.crashed.add(pid)
            live.discard(pid)
            self.running.discard(pid)
        return sent

    async def _round_loop(self, endpoint: Endpoint) -> None:
        ctl = self.control
        record = self.recorder is not None
        tel = self.telemetry
        live_at = self.live_at
        rnd = ctl.begin()
        while rnd is not None:
            rejoining = ctl.rejoining(rnd)
            if rejoining:
                await self._rejoin_phase(endpoint, rnd, rejoining)
            crashing, blocked = ctl.open(rnd, rejoining)

            # Open the round on every host with a live pid.  Each reports
            # SENT once its bundles are out and, unless its pids all
            # crashed or halted there, DONE once its peers' are in; a host
            # alone in the round folds SENT into its DONE.
            faults = self._faults(rnd, crashing, blocked)
            opened = [host for host, live in live_at.items() if live]
            for host in opened:
                await endpoint.send(
                    host, (_START, rnd, *faults.get(host, _NO_FAULT), record, opened)
                )
            sending = set(opened)
            receiving: set[int] = set()
            delivered_any = False
            earliest: Optional[int] = None
            if tel is not None and not sending:
                ctl.phase("send", rnd)  # every pid crashed, a rejoin ahead

            def missing() -> Iterable[int]:
                # A silent host is missing all of its live pids.
                return chain.from_iterable(live_at[h] for h in sending or receiving)

            while sending or receiving:
                phase = "send phase" if sending else "receive phase"
                host, frame = await self._recv(
                    endpoint, (_SENT, _DONE), phase, rnd, missing
                )
                done = frame[0] == _DONE
                sent = frame[4] if done else frame[2:]
                if sent is not None:
                    sending.discard(host)
                    crashes = faults.get(host, _NO_FAULT)[0]
                    if self._book_sent(host, rnd, *sent, crashes):
                        delivered_any = True
                    if not done and live_at[host]:
                        receiving.add(host)
                    if tel is not None and not sending:
                        # The send span covers opening the round up to the
                        # last send report.
                        ctl.phase("send", rnd)
                if done:
                    receiving.discard(host)
                    _, _r, statuses, wake, _sent = frame
                    self.last_progress[host] = ("deliver", rnd, time.monotonic())
                    for pid, *status in statuses:
                        self._update(host, pid, *status)
                    if wake is not None and (earliest is None or wake < earliest):
                        earliest = wake
            if tel is not None:
                # Deliver covers the rest of the barrier, up to the last
                # DONE report.
                ctl.phase("deliver", rnd, self.statuses)

            if self.on_round is not None:
                self.on_round(self, rnd)

            # The hosts' earliest wakes (asked only after a quiescent
            # round, when every awake pid has just been asked).
            rnd = ctl.close(rnd, delivered_any, not self.running, lambda: earliest)

    async def _stop_survivors(self, endpoint: Endpoint) -> None:
        # A host whose pids all halted or crashed for good has already
        # detached (both hubs drop frames to detached addresses) -- but
        # one with a crashed *churn* pid awaiting a rejoin that will
        # never come is still listening.  STOP every host that reported
        # rather than guess which ones remain attached.  After a failed
        # ready phase, pids that never reported get one at their own
        # address too: a host attaching late (the runners bind it at its
        # lowest pid, and the hub buffers for an address not yet
        # attached) must not sit in recv() forever.
        hosts = set(self.host_of.values())
        hosts.update(pid for pid in range(self.n) if pid not in self.host_of)
        for host in sorted(hosts):
            await endpoint.send(host, (_STOP,))


# -- runners -----------------------------------------------------------------


async def drive_session(
    session: Session, hub: Any, processes: Sequence[Process]
) -> RunResult:
    """Run ``session`` to completion on ``hub`` and return its result.

    ``hub`` is a hub or a hub connection: the coordinator binds on it at
    ``(n, session.instance)``.  ``processes`` is one shard, hosted here
    by a single :func:`run_nodes` task at ``(0, instance)`` with the
    session's telemetry and churn pids; ``()`` means the hosts dial in
    from elsewhere.  The host is awaited after the session and torn down
    with the coordinator on any exit; ``result.processes`` holds the
    hosted objects when there are any.
    """
    n, instance = session.n, session.instance
    coordinator = hub.endpoint(n, instance)
    host = None
    try:
        if processes:
            host = asyncio.create_task(
                run_nodes(
                    processes,
                    hub.endpoint(0, instance),
                    n,
                    churn_pids=session.adversary.rejoin_pids(),
                    telemetry=session.telemetry,
                )
            )
        result = await session.run(coordinator)
        if host is not None:
            await host
            result.processes = list(processes)
        return result
    finally:
        if host is not None:
            host.cancel()
            await asyncio.gather(host, return_exceptions=True)
        await coordinator.close()


async def _run_async(
    session: Session,
    processes: Sequence[Process],
    transport: str,
    host: str,
    port: int,
    batching: bool,
) -> RunResult:
    tel = session.telemetry
    if tel is not None:
        # Label and open the run span before any transport setup so the
        # host/coordinator spans all land inside it; install the codec
        # probe so frame encode/decode cost aggregates into the stats.
        tel.run_begin(backend="net" if transport == "memory" else "tcp", n=session.n)
        set_codec_probe(tel)
    hub = mux = None
    try:
        if transport == "memory":
            return await drive_session(session, MemoryHub(), processes)
        # One OS process, one hub connection: the host and the
        # coordinator bind on the same mux, and every frame between
        # them -- START and DONE a round -- really crosses the socket
        # to the hub and back.
        hub = TCPHub(host, port, batching=batching)
        await hub.start()
        mux = await open_mux(host, hub.port, batching=batching)
        return await drive_session(session, mux, processes)
    finally:
        if tel is not None:
            set_codec_probe(None)
        # A dial or bind that failed must not leave the hub listening.
        if mux is not None:
            await mux.close()
        if hub is not None:
            await hub.close()


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
    spans, the host's ``node.send``/``node.deliver`` track and
    aggregated codec timings, sealed onto ``result.telemetry``.  ``batching``
    (TCP only) toggles wire-write coalescing in the transport --
    delivery semantics and results are identical either way; the off
    position exists to measure the gain (the perf ladder's
    ``net.runtime.batching_gain`` on ``wire-ladder``; per-host bundling
    leaves a single run few frames to coalesce).
    """
    check_pid_order(processes)
    # First, so that a schedule the control rejects fails before a hub,
    # a socket or the codec probe exists.
    session = Session(
        len(processes),
        adversary,
        byzantine=byzantine,
        max_rounds=max_rounds,
        fast_forward=fast_forward,
        timeout=timeout,
        recorder=recorder,
        telemetry=telemetry,
    )
    if transport not in ("memory", "tcp"):
        raise ValueError(f"unknown transport {transport!r}")
    return asyncio.run(
        _run_async(session, processes, transport, host, port, batching)
    )


async def host_nodes_tcp(
    processes: Mapping[int, Process] | Sequence[Process],
    host: str,
    port: int,
    *,
    churn_pids: Iterable[int] = (),
) -> None:
    """Host a shard of processes in this OS process, dialing a remote hub.

    ``processes`` maps pid to process (or is a sequence of processes);
    the shard is one :func:`run_nodes` host on this process's hub
    connection, bound at its lowest pid.  ``churn_pids`` names the pids
    with a scheduled crash-and-rejoin (the coordinator's adversary's
    ``rejoin_pids()``) so those hosted here snapshot their initial state
    and survive their crash leg; workers of a churn scenario must pass
    it.  Returns when every hosted process has halted, crashed for good
    or been stopped by the coordinator.
    """
    procs = (
        list(processes.values())
        if isinstance(processes, Mapping)
        else list(processes)
    )
    mux = await open_mux(host, port)
    try:
        if procs:
            await run_nodes(
                procs,
                mux.endpoint(min(proc.pid for proc in procs)),
                procs[0].n,
                churn_pids=churn_pids,
            )
    finally:
        await mux.close()
