"""Pluggable transports: an in-memory hub and a TCP hub.

Both hand out one :class:`Endpoint` class -- ``await send(dst, obj)``,
``await recv() -> (src, obj)``, the non-blocking ``recv_nowait()`` and
``await close()`` -- over a hub (star) topology: every endpoint holds a
link to a central router that forwards frames by
``(instance, destination address)``.  The process that owns a hub binds
on it directly (``hub.endpoint(...)``); only other processes dial a
:class:`TCPHub`'s socket (``mux.endpoint(...)``), so a frame crosses a
socket exactly where a process boundary is.  Addresses within one
protocol instance are one per host (by convention the lowest pid it
hosts) plus the coordinator at address ``n``; the *instance* tag is
what lets many protocol instances
share one hub (and, over TCP, one physical connection -- see
:class:`TCPMux`) without their frames mixing.

The hub is infrastructure (a software switch), not a protocol
participant: message and bit accounting happens at the sending node
exactly as in the simulator, so the topology does not affect the
paper's communication measures.

Delivery semantics (one router: a :class:`TCPHub` is a
:class:`MemoryHub` plus a listening socket): frames
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
queues.  Each end of the connection is an ``asyncio.Protocol``, with no
reader, writer or pump task between the socket and the router: the turn
a chunk arrives in parses it, and on the hub also routes its frames and
writes them to the destination connections.  Writes are *batched*:
frames queued within one event-loop turn are coalesced into one batch
frame (:func:`~repro.net.codec.encode_batch`) with payload interning, so
a host's whole send phase -- or a thousand sessions' simultaneous round
openings -- costs one syscall, at either end.  Batching never reorders a
connection's stream, so the FIFO delivery contract is unchanged.

Backpressure
------------
Each hub connection owns a *bounded* outbound queue that every frame
routed to it passes through; it is handed to the transport once per
turn, unless the transport's own buffer is full (``pause_writing``).  A
consumer that stops reading (a stalled worker, a wedged client) thus
fills its queue; at the bound the hub drops that connection with a
:class:`SlowConsumerError` naming the laggard and the instance whose
frame hit the limit -- the slow consumer is sacrificed so every other
instance's rounds keep advancing.  Per-connection accounting (queue
high-water mark, delivered frames, drop counter) is exposed via
:meth:`TCPHub.connection_stats`.
"""

from __future__ import annotations

import asyncio
import sys
from collections import deque
from functools import partial
from typing import Any, Callable, Optional

from repro.net.codec import (
    BATCH,
    CONTROL,
    HEADER,
    MAX_BATCH_BYTES,
    MAX_FRAME_BYTES,
    check_frame_size,
    decode,
    decode_batch,
    encode,
    encode_batch,
)

__all__ = [
    "Endpoint",
    "MemoryHub",
    "SlowConsumerError",
    "TCPEndpoint",
    "TCPHub",
    "TCPMux",
    "connect_tcp",
    "open_mux",
]

#: Seconds a dialler keeps retrying a refused connection, so it can race
#: the listener's startup (a freshly spawned worker's included).
CONNECT_DEADLINE = 30.0


class SlowConsumerError(RuntimeError):
    """A connection's bounded outbound queue overflowed.

    The message names the laggard connection (peer + bound endpoints),
    the queue bound, and the protocol instance whose frame hit the
    limit, so a multiplexed deployment can tell *which* session's
    traffic a stalled consumer was starving.
    """


class Endpoint:
    """One ``(instance, address)`` attachment to either kind of hub.

    What it sends goes to the ``route(src, dst, instance, body)`` of
    whatever attached it -- a hub's router in the hub's own process, a
    :class:`TCPMux`'s outbound queue in any other -- and :meth:`close`
    calls that owner's ``detach``; :meth:`deliver` is the hub's sink
    interface.  Frames are pickled on send and unpickled on receive even
    in-process, so a frame arrives as an equal *copy*, never as the
    sender's object (one copy per destination host for the round
    runtime's data bundles):

    >>> async def echo():
    ...     hub = MemoryHub()
    ...     sender, receiver = hub.endpoint(0), hub.endpoint(1)
    ...     frame = ["value", 1]
    ...     await sender.send(1, frame)
    ...     src, got = await receiver.recv()
    ...     return src, got == frame, got is frame
    >>> asyncio.run(echo())
    (0, True, False)

    Ordering contract: frames from one sender to one destination are
    delivered FIFO, and a destination's frames from *all* senders pass
    through one sink queue in routing order.  The round runtime builds
    on both properties — a host's flagged last data bundle of a round
    to a peer can never overtake its earlier ones, and whatever was
    sent to a crashed churn pid during its downtime is queued before
    the coordinator's ``REJOIN``.
    Batching preserves both: batches are split back into frames in
    entry order at every hop.
    """

    def __init__(self, address: int, instance: int, route: Callable, detach: Callable):
        self.address = address
        #: protocol-instance tag; 0 for single-instance runs
        self.instance = instance
        self._route = route
        self._detach = detach
        self._queue: asyncio.Queue = asyncio.Queue()

    def deliver(self, src: int, dst: int, instance: int, body: bytes) -> None:
        self._queue.put_nowait((src, body))

    async def send(self, dst: int, obj: Any) -> None:
        """Encode and send one frame to ``dst`` within this endpoint's
        instance (fire-and-forget: frames to detached or never-attached
        addresses are buffered or dropped by the hub, mirroring the
        simulator's delivery rules)."""
        self._route(self.address, dst, self.instance, encode(obj))

    async def send_encoded(self, dst: int, body: bytes) -> None:
        """Send an already-:func:`~repro.net.codec.encode`-d frame body.

        Lets a multicast sender serialise its payload once and reuse the
        bytes across destinations instead of re-pickling per recipient
        (batching additionally interns the shared bytes on the wire).
        """
        self._route(self.address, dst, self.instance, body)

    async def recv(self) -> tuple[int, Any]:
        """Await the next inbound frame as ``(source address, body)``.

        Blocks indefinitely; in the round runtime a host's wait ends
        with a peer's bundle or a coordinator frame (``START``,
        ``REJOIN`` or ``STOP``), and a peer that dies before shipping is
        named by the coordinator's watchdog, whose ``STOP`` then ends
        the wait.  A connection's end (EOF, a frame-guard error) is
        queued behind its last frame as the exception that ended it,
        which this and every later call raise.
        """
        item = await self._queue.get()
        if isinstance(item, BaseException):
            self._queue.put_nowait(item)  # keep later recv() calls failing too
            raise item
        src, body = item
        return src, decode(body)

    def recv_nowait(self) -> Optional[tuple[int, Any]]:
        """The next inbound frame if one is already queued, else ``None``.

        Same FIFO stream and same :func:`~repro.net.codec.decode` path
        as :meth:`recv`; never suspends.  A closed connection also reads
        as ``None`` here -- the failure (EOF, a frame-guard error) is
        raised by the blocking :meth:`recv` the caller falls back to, so
        a collector can drain whatever a burst delivered and pay one
        suspension only once the queue is empty.
        """
        queue = self._queue
        if queue.empty():
            return None
        item = queue.get_nowait()
        if isinstance(item, BaseException):
            queue.put_nowait(item)  # left for the blocking recv() to raise
            return None
        src, body = item
        return src, decode(body)

    async def close(self) -> None:
        """Detach from the hub; subsequent frames to this
        ``(instance, address)`` are dropped (a crashed or halted node
        receives nothing)."""
        self._detach((self.instance, self.address), self)


class MemoryHub:
    """The router both hubs are: every endpoint a same-process one.

    Routing keys are ``(instance, address)`` pairs; each attached key
    maps to a *sink* (an object with ``deliver(src, dst, instance,
    body)``): an :class:`Endpoint` bound with :meth:`endpoint` in the
    hub's own process, or a connection's outbound queue for one bound
    over a :class:`TCPHub` socket.  Frames for a key that has not
    attached yet are buffered
    and flushed on attach (startup order becomes irrelevant); frames for
    a key that attached and then detached — a crashed or halted node —
    are dropped, mirroring the simulator's "crashed nodes receive
    nothing".  :class:`TCPHub` inherits this, so the two hubs' delivery
    semantics cannot drift apart.  Routing is synchronous: routing order
    *is* send order, the FIFO guarantee of :class:`Endpoint` for free.
    """

    def __init__(self) -> None:
        self._sinks: dict[tuple[int, int], Any] = {}
        self._seen: set[tuple[int, int]] = set()
        self._pending: dict[tuple[int, int], list[tuple[int, bytes]]] = {}
        #: instance -> every key of it in the three tables above, so a
        #: purge touches its own keys only.
        self._keys: dict[int, set[tuple[int, int]]] = {}

    def _attach(self, key: tuple[int, int], sink: Any) -> None:
        self._sinks[key] = sink
        self._seen.add(key)
        instance, address = key
        self._keys.setdefault(instance, set()).add(key)
        for src, body in self._pending.pop(key, []):
            sink.deliver(src, address, instance, body)

    def _route(self, src: int, dst: int, instance: int, body: bytes) -> None:
        key = (instance, dst)
        sink = self._sinks.get(key)
        if sink is not None:
            sink.deliver(src, dst, instance, body)
        elif key not in self._seen:
            self._pending.setdefault(key, []).append((src, body))
            self._keys.setdefault(instance, set()).add(key)
        # else: destination detached (crashed/halted); drop.

    def _detach(self, key: tuple[int, int], sink: Any) -> None:
        if self._sinks.get(key) is sink:
            del self._sinks[key]

    def endpoint(self, address: int, instance: int = 0) -> Endpoint:
        """Attach ``(instance, address)`` in the hub's own process and
        return its endpoint (flushing any frames buffered for it before
        it attached).  A key that is attached already raises
        ``ValueError``."""
        key = (instance, address)
        if key in self._sinks:
            raise ValueError(f"endpoint {key} already attached to this hub")
        endpoint = Endpoint(address, instance, self._route, self._detach)
        self._attach(key, endpoint)
        return endpoint

    def purge_instance(self, instance: int) -> None:
        """Forget every routing entry of one protocol instance.

        A long-lived multiplexed hub (the run-server) would otherwise
        accumulate one ``_seen`` entry per ``(instance, pid)`` forever;
        callers purge an instance once its session has completed and
        its node tasks have detached.  Purging re-enables buffering for
        the instance's keys, so it must only happen after the instance
        is quiescent.
        """
        for key in self._keys.pop(instance, ()):
            self._sinks.pop(key, None)
            self._pending.pop(key, None)
            self._seen.discard(key)


# -- TCP ---------------------------------------------------------------------


class _Connection(asyncio.Protocol):
    """What the two ends of a hub connection share: the frame parser
    and the outbound queue.

    Inbound, :meth:`data_received` hands every frame its chunk
    completes to ``_dispatch`` in arrival order, batch frames split back
    into inner frames.  A header is held to the frame-size guard as soon
    as its 16 bytes are there, before a byte of its body is waited for.
    A guard failure, EOF or a lost connection ends the stream (it cannot
    be resynchronised: what still arrives is discarded) and
    ``_on_stream_end`` says what that means at this end.

    Outbound, frames wait in ``frames`` until :meth:`_write_pending`
    hands them to the transport, once per event-loop turn, so a send
    burst -- a host's data bundles and its ``SENT`` -- coalesces into
    one batch write; while the transport's buffer is over its
    high-water mark (``pause_writing``) the queue is left to grow, up
    to ``max_queue`` frames (see :meth:`_enqueue`).
    """

    #: names this end of the connection in frame-guard errors
    phase = ""
    #: per-frame body-size ceiling enforced on ingress (see
    #: :func:`repro.net.codec.check_frame_size`); a connection whose
    #: header announces more is dropped before the body is read
    max_frame_bytes = MAX_FRAME_BYTES
    #: whole-batch ceiling for ``dst == BATCH`` frames; inner frames
    #: are additionally held to ``max_frame_bytes`` at decode time
    max_batch_bytes = MAX_BATCH_BYTES
    #: outbound queue bound (backpressure); unbounded unless an end
    #: sets it
    max_queue = sys.maxsize

    def __init__(self, peer: str, batching: bool):
        self.peer = peer
        self.batching = batching
        self.frames: deque[tuple[int, int, int, bytes]] = deque()
        self._loop = asyncio.get_running_loop()
        self._transport: Any = None
        self._inbound = bytearray()
        self._ended = False
        self._flush_due = False
        #: pending while the transport refuses more bytes, else ``None``
        self._resumed: Optional[asyncio.Future] = None
        #: resolved by ``connection_lost``
        self._closed: asyncio.Future = self._loop.create_future()

    @property
    def stream_ended(self) -> bool:
        """Whether the inbound stream is over (EOF, a frame-guard error
        or a lost connection): nothing further will be dispatched."""
        return self._ended

    # -- inbound ----------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        if self._ended:
            return
        self._inbound += data
        try:
            self._parse()
        except Exception as exc:
            # A guard failure, a corrupt batch, a body that does not
            # decode: left to propagate, asyncio would log it and no more.
            self._inbound = bytearray()
            self._end_stream(exc)

    def _parse(self) -> None:
        buffer = self._inbound
        start, size = 0, len(buffer)
        while size - start >= HEADER.size:
            length, src, dst, instance = HEADER.unpack_from(buffer, start)
            batch = dst == BATCH
            phase = f"{self.phase} (batch)" if batch else self.phase
            check_frame_size(
                length,
                limit=self.max_batch_bytes if batch else self.max_frame_bytes,
                peer=self.peer,
                phase=phase,
                instance=None if batch else instance,
            )
            end = start + HEADER.size + length
            if end > size:
                break
            body = bytes(buffer[start + HEADER.size : end])
            start = end
            if not batch:
                self._dispatch(src, dst, instance, body)
                continue
            for frame in decode_batch(
                body, limit=self.max_frame_bytes, peer=self.peer, phase=phase
            ):
                self._dispatch(*frame)
        del buffer[:start]

    def _dispatch(self, src: int, dst: int, instance: int, body: bytes) -> None:
        raise NotImplementedError

    def _decode(self, body: bytes) -> Any:
        """:func:`~repro.net.codec.decode` for ``_dispatch``: a body that
        does not decode ends the stream with an error naming the peer
        and the cause."""
        try:
            return decode(body)
        except Exception as exc:
            raise ValueError(
                f"undecodable frame body from {self.peer} ({self.phase}): "
                f"{type(exc).__name__}: {exc}"
            ) from None

    def eof_received(self) -> None:
        # Neither end half-closes and goes on reading: the peer is gone,
        # so let the transport close (it writes its buffer out first).
        self._end_stream()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end_stream()
        self.resume_writing()  # nothing to write to: empties the queue
        self._closed.set_result(None)

    def _end_stream(self, error: Optional[Exception] = None) -> None:
        if not self._ended:
            self._ended = True
            self._on_stream_end(error)

    def _on_stream_end(self, error: Optional[Exception]) -> None:
        raise NotImplementedError

    # -- outbound ---------------------------------------------------------

    def _enqueue(self, frame: tuple[int, int, int, bytes]) -> bool:
        """Queue one outbound frame; ``False`` if the queue is full.

        Frames pile up only while the transport refuses bytes, so one
        that finds ``max_queue`` waiting means the consumer stopped
        reading: it is refused and the connection dropped -- aborted,
        so what is queued is lost and the peer sees EOF -- and the
        caller names the laggard.  Every other connection keeps flowing.
        """
        if len(self.frames) >= self.max_queue:
            self._transport.abort()
            return False
        self.frames.append(frame)
        if not self._flush_due and self._resumed is None:
            self._flush_due = True
            self._flush_soon()
        return True

    def _flush_soon(self) -> None:
        self._loop.call_soon(self._write_pending)

    def _write_pending(self) -> None:
        """Hand the queued frames to the transport.

        With batching, everything currently queued coalesces into one
        batch frame (single frames skip the batch envelope); without,
        each frame is written individually -- the baseline arm of the
        perf ladder's ``net.runtime.batching_gain`` (``wire-ladder``
        workload).
        """
        self._flush_due = False
        frames = self.frames
        if not frames or self._resumed is not None:
            return
        if self._transport.is_closing():
            frames.clear()  # lost, as on any connection going away
            return
        if self.batching and len(frames) > 1:
            body = encode_batch(frames)
            frames.clear()
            self._transport.write(HEADER.pack(len(body), -1, BATCH, 0) + body)
            return
        while frames and self._resumed is None:
            src, dst, instance, body = frames.popleft()
            self._transport.write(HEADER.pack(len(body), src, dst, instance) + body)

    def pause_writing(self) -> None:
        self._resumed = self._loop.create_future()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.set_result(None)
        self._write_pending()


async def _wait_closed(connections: list, timeout: float) -> None:
    """Wait for closing connections to write their buffers out and go;
    one still there after ``timeout`` seconds is aborted."""
    closed = [connection._closed for connection in connections]
    if closed:
        await asyncio.wait(closed, timeout=timeout)
        for connection in connections:
            if not connection._closed.done():
                connection._transport.abort()
        await asyncio.wait(closed)


class _ConnSink(_Connection):
    """One hub connection: its ingress parser, and its bounded outbound
    queue + accounting.

    Every frame routed to the connection passes through the counted
    queue -- :meth:`deliver` never writes through, so ``delivered`` and
    ``queue_hwm`` see all of them -- and ``_write_pending`` empties it:
    at the end of the ``data_received`` call that routed into it, or on
    the next turn for frames a local endpoint sent.  Its ``max_queue``
    is the hub's ``max_queue_frames``; the overflow's
    :class:`SlowConsumerError` names the connection and the instance
    whose frame hit the bound.
    """

    phase = "hub ingress"

    def __init__(self, hub: "TCPHub"):
        super().__init__("", hub.batching)
        self.max_frame_bytes = hub.max_frame_bytes
        self.max_batch_bytes = hub.max_batch_bytes
        self.hub = hub
        self.max_queue = hub.max_queue_frames
        self.bound: set[tuple[int, int]] = set()
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

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.peer = f"connection {transport.get_extra_info('peername')}"
        self.hub._conns.add(self)

    def data_received(self, data: bytes) -> None:
        hub = self.hub
        hub._dirtied = dirtied = []
        try:
            super().data_received(data)
        finally:
            hub._dirtied = None
            for sink in dirtied:
                sink._write_pending()

    def _dispatch(self, src: int, dst: int, instance: int, body: bytes) -> None:
        # Control frames included, batched or not: a bind travelling
        # out of order with the data behind it would break the
        # attach-before-deliver contract.
        self.hub._ingress(self, src, dst, instance, body)

    def _on_stream_end(self, error: Optional[Exception]) -> None:
        hub = self.hub
        hub._unbind(self)
        if error is not None:
            # A corrupt stream cannot be resynchronised: drop this
            # connection.  The peer -- and anyone awaiting its frames --
            # observes EOF, so the failure surfaces as a named
            # coordinator timeout/recv error instead of a 4 GiB read
            # stall.  Keep the peer/phase diagnostic: the dropped
            # connection alone would otherwise read as an anonymous
            # worker death.
            hub.last_frame_error = str(error)
            print(f"TCPHub: {error}", file=sys.stderr)
            self._transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.hub._conns.discard(self)

    def deliver(self, src: int, dst: int, instance: int, body: bytes) -> None:
        if not self._enqueue((src, dst, instance, body)):
            self.hub._on_slow_consumer(self, SlowConsumerError(
                f"outbound queue for {self.label()} overflowed its "
                f"{self.max_queue}-frame bound on a frame for instance "
                f"{instance} (addr {dst}); the consumer stopped reading -- "
                "dropping the laggard connection so other sessions' rounds "
                "keep advancing"
            ))
            return
        self.delivered += 1
        if len(self.frames) > self.queue_hwm:
            self.queue_hwm = len(self.frames)

    def _flush_soon(self) -> None:
        dirtied = self.hub._dirtied
        if dirtied is None:
            super()._flush_soon()
        else:
            dirtied.append(self)


class TCPHub(MemoryHub):
    """A TCP frame router (software switch): the router plus one
    listening socket for endpoints in other processes.

    Connections exchange ``[len][src][dst][instance]`` framed bodies
    (see :mod:`repro.net.codec`).  A connection binds routing keys with
    control frames (``dst == CONTROL``); the hub routes every other
    frame by ``(instance, dst)``, splitting batch frames
    (``dst == BATCH``) back into inner frames in order.

    A chunk read from one connection is parsed, routed into the
    destination connections' bounded queues and written to their
    transports in *batched* writes within one event-loop turn.  A
    transport buffers what its socket will not take, so forwarding never
    blocks on a slow destination — which rules out head-of-line
    deadlocks when two nodes flood each other past the socket buffers —
    and a consumer that stops reading altogether is dropped at the queue
    bound (:class:`SlowConsumerError`) instead of wedging the hub.
    """

    #: how long :meth:`close` lets a connection write out its queue
    drain_timeout = 5.0
    #: the ingress guards of every connection (see :class:`_Connection`)
    max_frame_bytes = MAX_FRAME_BYTES
    max_batch_bytes = MAX_BATCH_BYTES
    #: per-connection outbound queue bound (backpressure)
    max_queue_frames = 1_000_000

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, batching: bool = True):
        super().__init__()
        self.host = host
        self.port = port
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
        #: inside a connection's ``data_received``: the sinks it has
        #: routed into so far, written out when the chunk is done
        self._dirtied: Optional[list[_ConnSink]] = None

    async def start(self) -> None:
        """Bind the listening socket; ``self.port`` then carries the
        actual port (useful when constructed with an ephemeral 0)."""
        self._server = await asyncio.get_running_loop().create_server(
            partial(_ConnSink, self), self.host, self.port
        )
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
                "queue_bound": sink.max_queue,
            }
            for sink in sorted(self._conns, key=lambda s: s.peer)
        ]

    async def close(self) -> None:
        """Tear the hub down: stop listening, hand every connection's
        queue to its transport (a local endpoint's last frames --
        ``STOP``, a worker's ``shutdown`` -- sit there, not in a socket
        buffer) and close it, which writes the buffer out first, so
        remote endpoints observe EOF instead of blocking in ``recv``
        forever; a consumer that stopped reading gets ``drain_timeout``
        seconds and is then aborted."""
        if self._server is not None:
            self._server.close()
        conns = list(self._conns)
        for sink in conns:
            sink.resume_writing()  # the bound has nothing left to protect
            sink._transport.close()
        await _wait_closed(conns, self.drain_timeout)
        self._sinks.clear()

    def _unbind(self, sink: _ConnSink) -> None:
        for key in sink.bound:
            self._detach(key, sink)
        sink.bound.clear()

    def _on_slow_consumer(self, sink: _ConnSink, exc: SlowConsumerError) -> None:
        # The laggard's connection is aborted already: detach its keys
        # so further frames to it are discarded like any detached
        # endpoint's, and keep the diagnostic -- the drop alone would
        # otherwise read as an anonymous connection death.
        self.last_backpressure_error = str(exc)
        self.backpressure_drops += 1
        print(f"TCPHub: {exc}", file=sys.stderr)
        self._unbind(sink)

    def _ingress(
        self, sink: _ConnSink, src: int, dst: int, instance: int, body: bytes
    ) -> None:
        """Process one inbound frame from a connection: control frames
        (un)bind routing keys on its sink, everything else routes.  A
        bind of a key attached elsewhere is refused: it ends the binding
        connection's stream (which drops it), and the key's mail stays
        where it was."""
        if dst == CONTROL:
            op, addr = sink._decode(body)
            key = (instance, addr)
            if op == "bind":
                if self._sinks.get(key, sink) is not sink:
                    raise ValueError(
                        f"{sink.peer} binds instance {instance} addr {addr}, "
                        "which is attached already; refusing the bind"
                    )
                sink.bound.add(key)
                self._attach(key, sink)
            elif op == "unbind":
                if key in sink.bound:
                    sink.bound.discard(key)
                    self._detach(key, sink)
        else:
            self._route(src, dst, instance, body)


class TCPMux(_Connection):
    """One multiplexed hub connection hosting many virtual endpoints.

    The session-multiplexing workhorse: a run-server process opens a
    handful of these and runs *thousands* of protocol instances through
    them -- each :meth:`endpoint` is one ``(instance, address)`` routing
    key, sharing the single socket, frame parser and batching outbound
    queue.  Closing an endpoint unbinds only its key (crashed-node drop
    semantics for that key alone); closing the mux tears down the whole
    connection with the half-close-and-drain dance that keeps in-flight
    frames safe from kernel RSTs.  :func:`open_mux` dials one.
    """

    phase = "mux recv"

    def __init__(self, peer: str, batching: bool):
        super().__init__(peer, batching)
        self._endpoints: dict[tuple[int, int], Endpoint] = {}
        self._error: Optional[BaseException] = None
        self._closing = False

    def _send(self, src: int, dst: int, instance: int, body: bytes) -> None:
        self._check_open()
        self._enqueue((src, dst, instance, body))

    def _check_open(self) -> None:
        """Raise the connection's end, if it has one: the recorded
        failure, the local close, or the peer's EOF."""
        if self._error is not None:
            raise self._error
        if self._closing:
            raise ConnectionResetError("mux connection is closing")
        if self.stream_ended:
            raise ConnectionResetError(f"mux connection to {self.peer} has ended")

    def _dispatch(self, src: int, dst: int, instance: int, body: bytes) -> None:
        endpoint = self._endpoints.get((instance, dst))
        if endpoint is not None:
            endpoint.deliver(src, dst, instance, body)
        # else: endpoint closed locally; drop (detached semantics)

    def _on_stream_end(self, error: Optional[Exception]) -> None:
        # Wake every endpoint blocked in recv(): the connection is gone
        # (or its stream is corrupt), so blocking forever would hide the
        # failure.
        self._error = error
        end = error or ConnectionResetError(
            f"mux connection to {self.peer} closed while awaiting frames"
        )
        for endpoint in self._endpoints.values():
            endpoint._queue.put_nowait(end)

    # -- endpoint management ----------------------------------------------

    def endpoint(self, address: int, instance: int = 0) -> Endpoint:
        """Bind ``(instance, address)`` on the hub and return its
        virtual endpoint (``ValueError`` if the key is bound already).

        Its sends join the connection's batched outbound queue, and its
        ``close`` unbinds only this key.  The bind control frame travels
        through the same FIFO stream as subsequent data, so nothing this
        endpoint sends can arrive at the hub before its binding."""
        return self._attach(Endpoint(address, instance, self._send, self._detach))

    def _attach(self, endpoint: Endpoint) -> Endpoint:
        key = (endpoint.instance, endpoint.address)
        if key in self._endpoints:
            raise ValueError(f"endpoint {key} already bound on this connection")
        self._check_open()  # bound after the end, its recv would wait forever
        self._endpoints[key] = endpoint
        self._send(key[1], CONTROL, key[0], encode(("bind", key[1])))
        return endpoint

    def _detach(self, key: tuple[int, int], endpoint: Endpoint) -> None:
        if self._endpoints.get(key) is endpoint:
            del self._endpoints[key]
            if not (self.stream_ended or self._closing):
                self._send(key[1], CONTROL, key[0], encode(("unbind", key[1])))

    # -- lifecycle --------------------------------------------------------

    async def flush(self) -> None:
        """Wait until every buffered outbound frame reached the socket."""
        self._write_pending()
        while self._resumed is not None:
            await asyncio.shield(self._resumed)

    async def close(self) -> None:
        """Flush, half-close (FIN), drain inbound, then close.

        Closing outright with unread frames in the receive buffer (e.g.
        data addressed to a crashing node in its crash round) makes the
        kernel send RST, which can destroy this connection's own
        in-flight outbound frames at the hub -- losing, say, a crashing
        node's final ``SENT`` report and deadlocking the round barrier.
        The hub answers the FIN with its own once it has read everything
        before it, and on that the transport closes.
        """
        if self._closing:
            return
        try:
            await asyncio.wait_for(self.flush(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
        self._closing = True
        try:
            self._transport.write_eof()
        except (OSError, RuntimeError):
            pass
        await _wait_closed([self], 5.0)


class TCPEndpoint(Endpoint):
    """The one endpoint of a dedicated :class:`TCPMux`, which its
    ``close`` tears down: what :func:`connect_tcp` returns."""

    def __init__(self, mux: TCPMux, address: int):
        super().__init__(address, 0, mux._send, mux._detach)
        self._mux = mux

    async def close(self) -> None:
        await self._mux.close()


async def open_mux(host: str, port: int, *, batching: bool = True) -> TCPMux:
    """Dial a :class:`TCPHub` and return a bare multiplexed connection.

    Retrying for :data:`CONNECT_DEADLINE` seconds lets callers race the
    hub's startup: the first process to run simply waits for the
    listener to appear.  Bind endpoints on the returned mux with
    :meth:`TCPMux.endpoint`; see :func:`connect_tcp` for the
    single-endpoint convenience shape.
    """
    return await _dial(partial(TCPMux, f"hub {host}:{port}", batching), host, port)


async def _dial(factory: Callable[[], _Connection], host: str, port: int) -> Any:
    """Dial ``host:port`` and return the connection ``factory`` made,
    retrying a refused dial for :data:`CONNECT_DEADLINE` seconds."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + CONNECT_DEADLINE
    while True:
        try:
            _transport, connection = await loop.create_connection(factory, host, port)
            return connection
        except OSError:
            if loop.time() >= give_up:
                raise
            await asyncio.sleep(0.05)


async def connect_tcp(
    host: str, port: int, address: int, *, batching: bool = True
) -> TCPEndpoint:
    """Connect one endpoint (instance 0) to a :class:`TCPHub`, retrying
    as :func:`open_mux` does."""
    mux = await open_mux(host, port, batching=batching)
    return mux._attach(TCPEndpoint(mux, address))
