"""Pluggable transports: an in-memory hub and a TCP hub.

Both expose the same endpoint interface -- ``await send(dst, obj)``,
``await recv() -> (src, obj)``, the non-blocking ``recv_nowait()`` and
``await close()`` -- over a hub (star) topology: every endpoint holds a
link to a central router that forwards frames by
``(instance, destination address)``.  The process that owns a hub binds
on it directly (``hub.endpoint(...)``, a queue); only other processes
dial a :class:`TCPHub`'s socket, so a frame crosses a socket exactly
where a process boundary is.  Addresses within one
protocol instance are one per host (by convention the lowest pid it
hosts) plus the coordinator at address ``n``; the *instance* tag is
what lets many protocol instances
share one hub (and, over TCP, one physical connection -- see
:class:`TCPMux`) without their frames mixing.

The hub is infrastructure (a software switch), not a protocol
participant: message and bit accounting happens at the sending node
exactly as in the simulator, so the topology does not affect the
paper's communication measures.

Delivery semantics (shared by both hubs via :class:`_Router`): frames
for an ``(instance, address)`` that has not attached yet are buffered
and flushed on attach, which makes startup order irrelevant; frames for
a key that has already detached (a host whose processes all halted or
crashed) are dropped, mirroring the simulator's "crashed nodes receive
nothing".

Multiplexing and batching (TCP)
-------------------------------
One TCP connection is a :class:`TCPMux`: it can bind any number of
``(instance, address)`` endpoints, tagging outbound frames with the
instance header field and demultiplexing inbound frames to per-endpoint
queues.  Writes are *batched*: frames accumulated while the event loop
was busy are coalesced into one batch frame
(:func:`~repro.net.codec.encode_batch`) with payload interning, so a
node's whole send phase -- or a thousand sessions' simultaneous round
openings -- costs one syscall.  The hub's egress pumps batch the same
way.  Batching never reorders a connection's stream, so the FIFO
delivery contract is unchanged.

Backpressure
------------
Each hub connection owns a *bounded* outbound queue drained by its pump
task.  A consumer that stops reading (a stalled worker, a wedged
client) fills its queue; at the bound the hub drops that connection
with a :class:`SlowConsumerError` naming the laggard and the instance
whose frame hit the limit -- the slow consumer is sacrificed so every
other instance's rounds keep advancing.  Per-connection accounting
(queue high-water mark, delivered frames, drop counter) is exposed via
:meth:`TCPHub.connection_stats`.
"""

from __future__ import annotations

import asyncio
import sys
from collections import deque
from functools import partial
from typing import Any, Iterable, Optional

from repro.net.codec import (
    BATCH,
    CONTROL,
    HEADER,
    MAX_BATCH_BYTES,
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    check_frame_size,
    decode,
    decode_batch,
    encode,
    encode_batch,
)

__all__ = [
    "Endpoint",
    "MemoryEndpoint",
    "MemoryHub",
    "MuxEndpoint",
    "SlowConsumerError",
    "TCPEndpoint",
    "TCPHub",
    "TCPMux",
    "connect_tcp",
    "open_mux",
]


class SlowConsumerError(RuntimeError):
    """A connection's bounded outbound queue overflowed.

    The message names the laggard connection (peer + bound endpoints),
    the queue bound, and the protocol instance whose frame hit the
    limit, so a multiplexed deployment can tell *which* session's
    traffic a stalled consumer was starving.
    """


class Endpoint:
    """Interface every transport endpoint implements.

    Ordering contract: frames from one sender to one destination are
    delivered FIFO, and a destination's frames from *all* senders pass
    through one sink queue in routing order.  The round runtime builds
    on both properties — a host's ``SENT`` report can never overtake
    its own data bundles, and whatever was sent to a crashed churn pid
    during its downtime is queued before the coordinator's ``REJOIN``.
    Batching preserves both: batches are split back into frames in
    entry order at every hop.
    """

    address: int
    #: protocol-instance tag; 0 for single-instance runs
    instance: int = 0

    async def send(self, dst: int, obj: Any) -> None:
        """Encode and send one frame to ``dst`` within this endpoint's
        instance (fire-and-forget: frames to detached or never-attached
        addresses are buffered or dropped by the hub, mirroring the
        simulator's delivery rules)."""
        await self.send_encoded(dst, encode(obj))

    async def send_encoded(self, dst: int, body: bytes) -> None:
        """Send an already-:func:`~repro.net.codec.encode`-d frame body.

        Lets a multicast sender serialise its payload once and reuse the
        bytes across destinations instead of re-pickling per recipient
        (batching additionally interns the shared bytes on the wire).
        """
        raise NotImplementedError

    async def recv(self) -> tuple[int, Any]:
        """Await the next inbound frame as ``(source address, body)``.

        Blocks indefinitely; the round runtime guarantees liveness by
        always answering a node's report with a next-phase frame
        (``DELIVER``, ``START``, ``REJOIN`` or ``STOP``).
        """
        raise NotImplementedError

    def recv_nowait(self) -> Optional[tuple[int, Any]]:
        """The next inbound frame if one is already queued, else ``None``.

        Same FIFO stream and same :func:`~repro.net.codec.decode` path
        as :meth:`recv`; never suspends.  A closed connection also reads
        as ``None`` here -- the failure (EOF, a frame-guard error) is
        raised by the blocking :meth:`recv` the caller falls back to, so
        a collector can drain whatever a burst delivered and pay one
        suspension only once the queue is empty.
        """
        raise NotImplementedError

    async def close(self) -> None:
        """Detach from the hub; subsequent frames to this
        ``(instance, address)`` are dropped (a crashed or halted node
        receives nothing)."""
        raise NotImplementedError


class _Router:
    """Attach/route/detach bookkeeping and the in-process endpoints of
    both hubs.

    Routing keys are ``(instance, address)`` pairs; each attached key
    maps to a *sink* (an object with ``deliver(src, dst, instance,
    body)``): a queue for an endpoint bound with :meth:`endpoint` in the
    hub's own process, a connection's outbound queue for one bound over
    a :class:`TCPHub` socket.  Frames for a key that has not attached
    yet are buffered
    and flushed on attach (startup order becomes irrelevant); frames for
    a key that attached and then detached — a crashed or halted node —
    are dropped, mirroring the simulator's "crashed nodes receive
    nothing".  Both transports inherit this, so their delivery semantics
    cannot drift apart.
    """

    def __init__(self) -> None:
        self._sinks: dict[tuple[int, int], Any] = {}
        self._seen: set[tuple[int, int]] = set()
        self._pending: dict[tuple[int, int], list[tuple[int, bytes]]] = {}

    def _attach(self, key: tuple[int, int], sink: Any) -> None:
        self._sinks[key] = sink
        self._seen.add(key)
        instance, address = key
        for src, body in self._pending.pop(key, []):
            sink.deliver(src, address, instance, body)

    def _route(self, src: int, dst: int, instance: int, body: bytes) -> None:
        key = (instance, dst)
        sink = self._sinks.get(key)
        if sink is not None:
            try:
                sink.deliver(src, dst, instance, body)
            except SlowConsumerError as exc:
                self._on_slow_consumer(sink, exc)
        elif key not in self._seen:
            self._pending.setdefault(key, []).append((src, body))
        # else: destination detached (crashed/halted); drop.

    def _on_slow_consumer(self, sink: Any, exc: SlowConsumerError) -> None:
        raise exc  # memory endpoints are unbounded; TCPHub overrides

    def _detach(self, key: tuple[int, int], sink: Any = None) -> None:
        if sink is None or self._sinks.get(key) is sink:
            self._sinks.pop(key, None)

    def endpoint(self, address: int, instance: int = 0) -> "MemoryEndpoint":
        """Attach ``(instance, address)`` in the hub's own process and
        return its endpoint (flushing any frames buffered for it before
        it attached)."""
        queue: asyncio.Queue = asyncio.Queue()
        endpoint = MemoryEndpoint(self, address, instance, queue)
        self._attach((instance, address), _QueueSink(queue))
        return endpoint

    def route(self, src: int, dst: int, body: bytes, instance: int = 0) -> None:
        """Forward one frame; synchronous, so routing order *is* send
        order -- the FIFO guarantee of :class:`Endpoint` for free."""
        self._route(src, dst, instance, body)

    def detach(self, address: int, instance: int = 0) -> None:
        """Drop ``(instance, address)`` from the routing table; later
        frames to it are discarded (crashed/halted node semantics)."""
        self._detach((instance, address))

    def purge_instance(self, instance: int) -> None:
        """Forget every routing entry of one protocol instance.

        A long-lived multiplexed hub (the run-server) would otherwise
        accumulate one ``_seen`` entry per ``(instance, pid)`` forever;
        callers purge an instance once its session has completed and
        its node tasks have detached.  Purging re-enables buffering for
        the instance's keys, so it must only happen after the instance
        is quiescent.
        """
        for table in (self._sinks, self._pending):
            for key in [k for k in table if k[0] == instance]:
                del table[key]
        self._seen -= {k for k in self._seen if k[0] == instance}


# -- in-memory ---------------------------------------------------------------


class _QueueSink:
    """Adapter giving a plain ``asyncio.Queue`` the sink interface."""

    def __init__(self, queue: asyncio.Queue):
        self.queue = queue

    def deliver(self, src: int, dst: int, instance: int, body: bytes) -> None:
        self.queue.put_nowait((src, body))


class MemoryHub(_Router):
    """The bare router: every endpoint is a same-process queue."""


class MemoryEndpoint(Endpoint):
    """One attachment point in the hub's own process (either hub kind).

    Frames are pickled on send and unpickled on receive even though they
    never leave the process, so a local endpoint has the exact delivery
    semantics of a socket-attached one: a frame arrives as an equal
    *copy*, never as the sender's object (one copy per destination host
    for the round runtime's data bundles).
    """

    def __init__(
        self, hub: _Router, address: int, instance: int, queue: asyncio.Queue
    ):
        self._hub = hub
        self.address = address
        self.instance = instance
        self._queue = queue

    async def send_encoded(self, dst: int, body: bytes) -> None:
        self._hub.route(self.address, dst, body, self.instance)

    async def recv(self) -> tuple[int, Any]:
        src, body = await self._queue.get()
        return src, decode(body)

    def recv_nowait(self) -> Optional[tuple[int, Any]]:
        if self._queue.empty():
            return None
        src, body = self._queue.get_nowait()
        return src, decode(body)

    async def close(self) -> None:
        self._hub.detach(self.address, self.instance)


# -- TCP ---------------------------------------------------------------------


class _ConnSink:
    """One hub connection's bounded outbound queue + accounting.

    The hub's router delivers into this synchronously; the connection's
    pump task drains it into batched socket writes.  ``maxsize`` is the
    backpressure bound: a consumer that stops reading fills the queue,
    and the overflow raises :class:`SlowConsumerError` naming this
    connection and the instance whose frame hit the limit.
    """

    def __init__(self, writer: asyncio.StreamWriter, peer: str, maxsize: int):
        self.writer = writer
        self.peer = peer
        self.maxsize = maxsize
        self.bound: set[tuple[int, int]] = set()
        self.frames: deque[tuple[int, int, int, bytes]] = deque()
        self.wake = asyncio.Event()
        self.poisoned: Optional[BaseException] = None
        #: set by :meth:`TCPHub.close`: write what is queued, then stop
        self.closing = False
        #: accounting: frames delivered through this connection, and the
        #: deepest its outbound queue ever got (the slow-consumer gauge)
        self.delivered = 0
        self.queue_hwm = 0

    def label(self) -> str:
        if self.bound:
            sample = sorted(self.bound)[:4]
            keys = ", ".join(f"instance {i} addr {a}" for i, a in sample)
            extra = f" +{len(self.bound) - len(sample)} more" if len(self.bound) > 4 else ""
            return f"{self.peer} (bound: {keys}{extra})"
        return self.peer

    def deliver(self, src: int, dst: int, instance: int, body: bytes) -> None:
        if self.poisoned is not None:
            return  # connection is being dropped; frames are lost
        if len(self.frames) >= self.maxsize:
            raise SlowConsumerError(
                f"outbound queue for {self.label()} overflowed its "
                f"{self.maxsize}-frame bound on a frame for instance "
                f"{instance} (addr {dst}); the consumer stopped reading -- "
                "dropping the laggard connection so other sessions' rounds "
                "keep advancing"
            )
        self.frames.append((src, dst, instance, body))
        self.delivered += 1
        if len(self.frames) > self.queue_hwm:
            self.queue_hwm = len(self.frames)
        self.wake.set()

    def poison(self, exc: BaseException) -> None:
        self.poisoned = exc
        self.wake.set()


class TCPHub(_Router):
    """A TCP frame router (software switch): the router plus one
    listening socket for endpoints in other processes.

    Connections exchange ``[len][src][dst][instance]`` framed bodies
    (see :mod:`repro.net.codec`).  A connection binds routing keys with
    control frames (``dst == CONTROL``); the hub routes every other
    frame by ``(instance, dst)``, splitting batch frames
    (``dst == BATCH``) back into inner frames in order.

    Each connection's bounded sink queue is drained by a pump task
    writing to that connection in *batched* writes, so forwarding never
    blocks a reader loop on a slow destination — which rules out
    head-of-line deadlocks when two nodes flood each other past the
    socket buffers — and a consumer that stops reading altogether is
    dropped at the queue bound (:class:`SlowConsumerError`) instead of
    wedging the hub.
    """

    #: how long :meth:`close` lets a pump write out its queue
    drain_timeout = 5.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_batch_bytes: int = MAX_BATCH_BYTES,
        max_queue_frames: int = 1_000_000,
        batching: bool = True,
    ):
        super().__init__()
        self.host = host
        self.port = port
        #: per-frame body-size ceiling enforced on ingress (see
        #: :func:`repro.net.codec.check_frame_size`); a connection whose
        #: header announces more is dropped before the body is read
        self.max_frame_bytes = max_frame_bytes
        #: whole-batch ceiling for ``dst == BATCH`` frames; inner frames
        #: are additionally held to ``max_frame_bytes`` at decode time
        self.max_batch_bytes = max_batch_bytes
        #: per-connection outbound queue bound (backpressure)
        self.max_queue_frames = max_queue_frames
        #: coalesce egress writes into batch frames (disable to measure
        #: the per-frame baseline; semantics are identical either way)
        self.batching = batching
        #: last ingress frame-guard failure, kept for triage: the
        #: poisoned connection is dropped (its peers see EOF), and this
        #: names which endpoint sent the corrupt header and why
        self.last_frame_error: Optional[str] = None
        #: last backpressure drop, kept for triage: names the laggard
        #: connection and the instance whose frame overflowed
        self.last_backpressure_error: Optional[str] = None
        #: connections dropped for slow consumption since startup
        self.backpressure_drops = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: set[_ConnSink] = set()
        self._pumps: dict[_ConnSink, asyncio.Task] = {}

    async def start(self) -> None:
        """Bind the listening socket; ``self.port`` then carries the
        actual port (useful when constructed with an ephemeral 0)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def connection_stats(self) -> list[dict]:
        """Per-connection slow-consumer accounting.

        One row per live connection: its peer label, how many frames
        were routed to it, and its outbound-queue high-water mark
        relative to the bound (the gauge to watch for consumers running
        close to the backpressure limit).
        """
        return [
            {
                "peer": sink.label(),
                "delivered": sink.delivered,
                "queue_hwm": sink.queue_hwm,
                "queue_bound": sink.maxsize,
            }
            for sink in sorted(self._conns, key=lambda s: s.peer)
        ]

    async def close(self) -> None:
        """Tear the hub down: stop listening, let the pumps write what
        is queued (a local endpoint's last frames -- ``STOP``, a
        worker's ``shutdown`` -- sit there, not in a socket buffer; a
        consumer that stopped reading gets ``drain_timeout`` seconds),
        and force-close established connections so remote endpoints
        observe EOF instead of blocking in ``recv`` forever."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pumps = list(self._pumps.values())
        for sink in self._pumps:
            sink.closing = True
            sink.wake.set()
        if pumps:
            _done, stuck = await asyncio.wait(pumps, timeout=self.drain_timeout)
            for pump in stuck:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
        self._pumps.clear()
        for sink in list(self._conns):
            sink.writer.close()
        self._conns.clear()
        self._sinks.clear()

    def _on_slow_consumer(self, sink: _ConnSink, exc: SlowConsumerError) -> None:
        # Drop the laggard: poison its sink (pump exits and closes the
        # socket, so the consumer sees EOF), detach its keys so further
        # frames to it are discarded like any detached endpoint's, and
        # keep the diagnostic -- the drop alone would otherwise read as
        # an anonymous connection death.
        self.last_backpressure_error = str(exc)
        self.backpressure_drops += 1
        print(f"TCPHub: {exc}", file=sys.stderr)
        for key in list(sink.bound):
            self._detach(key, sink)
        sink.bound.clear()
        sink.poison(exc)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"connection {peername}"
        sink = _ConnSink(writer, peer, self.max_queue_frames)
        self._conns.add(sink)
        self._pumps[sink] = asyncio.create_task(self._pump(sink))
        try:
            # Control frames batch like any other frame (they must: a
            # bind travelling out of order with the data behind it would
            # break the attach-before-deliver contract), so batched or
            # not they all go through _ingress.
            await _read_frames(
                reader, partial(self._ingress, sink), self, peer, "hub ingress"
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except (FrameTooLargeError, ValueError) as exc:
            # A corrupt stream cannot be resynchronised: drop this
            # connection (the finally clause detaches and closes it).
            # The peer -- and anyone awaiting its frames -- observes
            # EOF, so the failure surfaces as a named coordinator
            # timeout/recv error instead of a 4 GiB read stall.  Keep
            # the peer/phase diagnostic: the dropped connection alone
            # would otherwise read as an anonymous worker death.
            self.last_frame_error = str(exc)
            print(f"TCPHub: {exc}", file=sys.stderr)
        except asyncio.CancelledError:
            # Handler tasks are cancelled en masse when the hosting loop
            # tears down after an error path; the hub is going away, so
            # swallow the cancellation instead of logging a traceback
            # per surviving connection.
            pass
        finally:
            for key in list(sink.bound):
                self._detach(key, sink)
            sink.bound.clear()
            pump = self._pumps.pop(sink, None)
            if pump is not None:
                pump.cancel()
            self._conns.discard(sink)
            writer.close()

    def _ingress(
        self, sink: _ConnSink, src: int, dst: int, instance: int, body: bytes
    ) -> None:
        """Process one inbound frame from a connection: control frames
        (un)bind routing keys on its sink, everything else routes."""
        if dst == CONTROL:
            op, addr = decode(body)
            key = (instance, addr)
            if op == "bind":
                sink.bound.add(key)
                self._attach(key, sink)
            elif op == "unbind":
                if key in sink.bound:
                    sink.bound.discard(key)
                    self._detach(key, sink)
        else:
            self._route(src, dst, instance, body)

    async def _pump(self, sink: _ConnSink) -> None:
        try:
            while True:
                await sink.wake.wait()
                sink.wake.clear()
                if sink.poisoned is not None:
                    sink.writer.close()
                    return
                while sink.frames:
                    _write_pending(sink.writer, sink.frames, self.batching)
                    await sink.writer.drain()
                if sink.closing:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass


async def _read_frames(
    reader: asyncio.StreamReader, dispatch: Any, limits: Any, peer: str, phase: str
) -> None:
    """Read a hub connection's inbound stream (either end of it) until
    it fails, calling ``dispatch(src, dst, instance, body)`` per frame,
    batch frames split back into inner frames in entry order.  ``limits``
    is the hub or mux whose ``max_frame_bytes``/``max_batch_bytes`` guard
    the stream; guard errors name ``peer`` and ``phase``."""
    batch_phase = f"{phase} (batch)"
    while True:
        header = await reader.readexactly(HEADER.size)
        length, src, dst, instance = HEADER.unpack(header)
        if dst == BATCH:
            check_frame_size(
                length, limit=limits.max_batch_bytes, peer=peer, phase=batch_phase
            )
            body = await reader.readexactly(length)
            for frame in decode_batch(
                body, limit=limits.max_frame_bytes, peer=peer, phase=batch_phase
            ):
                dispatch(*frame)
        else:
            check_frame_size(
                length,
                limit=limits.max_frame_bytes,
                peer=peer,
                phase=phase,
                instance=instance,
            )
            dispatch(src, dst, instance, await reader.readexactly(length))


def _write_pending(
    writer: asyncio.StreamWriter,
    frames: deque,
    batching: bool,
) -> None:
    """Flush queued ``(src, dst, instance, body)`` frames to a writer.

    With batching, everything currently queued coalesces into one batch
    frame (single frames skip the batch envelope); without, each frame
    is written individually -- the baseline arm of the perf ladder's
    ``net.runtime.batching_gain`` (``wire-ladder`` workload).
    """
    if not batching or len(frames) == 1:
        src, dst, instance, body = frames.popleft()
        writer.write(HEADER.pack(len(body), src, dst, instance) + body)
        return
    batch: list[tuple[int, int, int, bytes]] = []
    while frames:
        batch.append(frames.popleft())
    body = encode_batch(batch)
    writer.write(HEADER.pack(len(body), -1, BATCH, 0) + body)


#: queued behind a dead connection's last frame (see ``TCPMux._recv_on``)
_EOF = object()


class TCPMux:
    """One multiplexed hub connection hosting many virtual endpoints.

    The session-multiplexing workhorse: a run-server process opens a
    handful of these and runs *thousands* of protocol instances through
    them -- each :meth:`endpoint` is one ``(instance, address)`` routing
    key, sharing the single socket, reader task and batching writer
    task.  Closing an endpoint unbinds only its key (crashed-node drop
    semantics for that key alone); closing the mux tears down the whole
    connection with the half-close-and-drain dance that keeps in-flight
    frames safe from kernel RSTs.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_batch_bytes: int = MAX_BATCH_BYTES,
        batching: bool = True,
        peer: str = "hub",
    ):
        self._reader = reader
        self._writer = writer
        self.max_frame_bytes = max_frame_bytes
        self.max_batch_bytes = max_batch_bytes
        self.batching = batching
        self.peer = peer
        self._queues: dict[tuple[int, int], asyncio.Queue] = {}
        self._out: deque[tuple[int, int, int, bytes]] = deque()
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._error: Optional[BaseException] = None
        self._closing = False
        self._reader_task = asyncio.create_task(self._read_loop())
        self._writer_task = asyncio.create_task(self._write_loop())

    # -- outbound ---------------------------------------------------------

    def _send(self, src: int, dst: int, instance: int, body: bytes) -> None:
        if self._error is not None:
            raise self._error
        if self._closing:
            raise ConnectionResetError("mux connection is closing")
        self._out.append((src, dst, instance, body))
        self._drained.clear()
        self._wake.set()

    async def _write_loop(self) -> None:
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                while self._out:
                    _write_pending(self._writer, self._out, self.batching)
                    await self._writer.drain()
                self._drained.set()
        except (ConnectionError, asyncio.CancelledError):
            self._drained.set()

    # -- inbound ----------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            await _read_frames(
                self._reader, self._dispatch, self, self.peer, "mux recv"
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # EOF: hub (or this side) closed the connection
        except asyncio.CancelledError:
            pass
        except (FrameTooLargeError, ValueError) as exc:
            self._error = exc
        finally:
            # Wake every endpoint blocked in recv(): the connection is
            # gone, so blocking forever would hide the failure.
            for queue in self._queues.values():
                queue.put_nowait(_EOF)

    def _dispatch(self, src: int, dst: int, instance: int, body: bytes) -> None:
        queue = self._queues.get((instance, dst))
        if queue is not None:
            queue.put_nowait((src, body))
        # else: endpoint closed locally; drop (detached semantics)

    # -- endpoint management ----------------------------------------------

    def endpoint(self, address: int, instance: int = 0) -> "MuxEndpoint":
        """Bind ``(instance, address)`` on the hub and return its
        virtual endpoint.  The bind control frame travels through the
        same FIFO stream as subsequent data, so nothing this endpoint
        sends can arrive at the hub before its binding."""
        return MuxEndpoint(self, address, instance, self._bind(address, instance))

    def _bind(self, address: int, instance: int) -> asyncio.Queue:
        key = (instance, address)
        if key in self._queues:
            raise ValueError(f"endpoint {key} already bound on this connection")
        queue: asyncio.Queue = asyncio.Queue()
        self._queues[key] = queue
        self._send(address, CONTROL, instance, encode(("bind", address)))
        return queue

    def _close_endpoint(self, key: tuple[int, int]) -> None:
        if self._queues.pop(key, None) is None:
            return
        if self._error is None and not self._closing:
            try:
                self._send(key[1], CONTROL, key[0], encode(("unbind", key[1])))
            except ConnectionError:
                pass

    async def _recv_on(self, queue: asyncio.Queue) -> tuple[int, Any]:
        item = await queue.get()
        if item is _EOF:
            queue.put_nowait(_EOF)  # keep later recv() calls failing too
            if self._error is not None:
                raise self._error
            raise ConnectionResetError(
                f"mux connection to {self.peer} closed while awaiting frames"
            )
        src, body = item
        return src, decode(body)

    def _recv_nowait_on(self, queue: asyncio.Queue) -> Optional[tuple[int, Any]]:
        if queue.empty():
            return None
        item = queue.get_nowait()
        if item is _EOF:
            queue.put_nowait(_EOF)  # left for the blocking recv() to raise
            return None
        src, body = item
        return src, decode(body)

    # -- lifecycle --------------------------------------------------------

    async def flush(self) -> None:
        """Wait until every buffered outbound frame reached the socket."""
        await self._drained.wait()

    async def close(self) -> None:
        """Flush, half-close (FIN), drain inbound, then close.

        Closing outright with unread frames in the receive buffer (e.g.
        data addressed to a crashing node in its crash round) makes the
        kernel send RST, which can destroy this connection's own
        in-flight outbound frames at the hub -- losing, say, a crashing
        node's final ``SENT`` report and deadlocking the round barrier.
        """
        if self._closing:
            return
        try:
            await asyncio.wait_for(self.flush(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
        self._closing = True
        for task in (self._writer_task, self._reader_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        try:
            self._writer.write_eof()
            await self._writer.drain()
        except (OSError, RuntimeError):
            pass
        try:
            while await asyncio.wait_for(self._reader.read(65536), timeout=5.0):
                pass
        except (asyncio.TimeoutError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class MuxEndpoint(Endpoint):
    """One ``(instance, address)`` virtual endpoint on a :class:`TCPMux`.

    ``send_encoded`` appends to the connection's shared write buffer
    (flushed in batches by the writer task) and returns immediately, so
    a whole send phase coalesces into one wire write; ``close`` unbinds
    only this key, leaving the connection and its other endpoints
    untouched.
    """

    def __init__(
        self, mux: TCPMux, address: int, instance: int, queue: asyncio.Queue
    ):
        self._mux = mux
        self.address = address
        self.instance = instance
        self._queue = queue

    async def send_encoded(self, dst: int, body: bytes) -> None:
        self._mux._send(self.address, dst, self.instance, body)

    async def recv(self) -> tuple[int, Any]:
        return await self._mux._recv_on(self._queue)

    def recv_nowait(self) -> Optional[tuple[int, Any]]:
        return self._mux._recv_nowait_on(self._queue)

    async def close(self) -> None:
        self._mux._close_endpoint((self.instance, self.address))


class TCPEndpoint(MuxEndpoint):
    """The one endpoint of a dedicated :class:`TCPMux`.

    What :func:`connect_tcp` returns, for a process that needs exactly
    one address on a hub in another process (a probe, a single remote
    node): ``close`` tears down the whole connection.  A process
    hosting several addresses opens one :class:`TCPMux` and binds them
    all on it instead.
    """

    async def close(self) -> None:
        await self._mux.close()


async def open_mux(
    host: str,
    port: int,
    *,
    deadline: float = 10.0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    max_batch_bytes: int = MAX_BATCH_BYTES,
    batching: bool = True,
) -> TCPMux:
    """Dial a :class:`TCPHub` and return a bare multiplexed connection.

    Retrying until ``deadline`` lets callers race the hub's startup: the
    first process to run simply waits for the listener to appear.  Bind
    endpoints on the returned mux with
    :meth:`TCPMux.endpoint`; see :func:`connect_tcp` for the
    single-endpoint convenience shape.
    """
    loop = asyncio.get_running_loop()
    give_up = loop.time() + deadline
    while True:
        try:
            reader, writer = await asyncio.open_connection(host, port)
            break
        except OSError:
            if loop.time() >= give_up:
                raise
            await asyncio.sleep(0.05)
    return TCPMux(
        reader,
        writer,
        max_frame_bytes=max_frame_bytes,
        max_batch_bytes=max_batch_bytes,
        batching=batching,
        peer=f"hub {host}:{port}",
    )


async def connect_tcp(
    host: str,
    port: int,
    address: int,
    *,
    instance: int = 0,
    deadline: float = 10.0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    batching: bool = True,
) -> TCPEndpoint:
    """Connect one endpoint to a :class:`TCPHub`, retrying until ``deadline``.

    ``max_frame_bytes`` is the endpoint's inbound frame-size guard (see
    :func:`repro.net.codec.check_frame_size`); ``instance`` tags every
    frame for multi-instance hubs (single runs keep the default 0).
    """
    mux = await open_mux(
        host,
        port,
        deadline=deadline,
        max_frame_bytes=max_frame_bytes,
        batching=batching,
    )
    return TCPEndpoint(mux, address, instance, mux._bind(address, instance))
