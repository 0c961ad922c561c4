"""``Endpoint.recv_nowait`` on the four endpoint kinds, and local and
socket-attached endpoints sharing one hub.

The round coordinator drains its queue with ``recv_nowait`` and only
then pays a suspension in ``recv`` (see ``Session._recv``), so the two
must read one FIFO stream through one decode path, and the non-blocking
read must never eat the failure a dead connection owes the blocking one.

Kinds: ``memory`` (``MemoryHub.endpoint``), ``local`` (the same
in-process endpoint on a ``TCPHub`` -- how the hub's owner binds),
``mux`` and ``tcp`` (other processes' ends of a hub socket).  The owner
of a ``TCPHub`` and the processes dialling it meet in one router, so
buffering before attach, per-destination FIFO, detach-drop and
``purge_instance`` must hold across the two kinds of endpoint.

Both ends of a hub socket parse their stream in ``data_received``, so
how the bytes were cut into chunks must not show: the same frames are
dispatched in the same order, the frame-size guard fires on a header
alone, and every routed frame is counted in ``connection_stats()``.
"""

import asyncio
import re
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    FrameTooLargeError,
    MemoryHub,
    TCPHub,
    TCPMux,
    connect_tcp,
    open_mux,
)
from repro.net.codec import (
    BATCH,
    CONTROL,
    HEADER,
    MAX_FRAME_BYTES,
    encode,
    encode_batch,
    set_codec_probe,
)
from repro.net.transport import _ConnSink
from repro.obs import TelemetryRecorder

KINDS = ["memory", "local", "mux", "tcp"]


class _Pair:
    """Endpoints at addresses 0 and 1 of one hub of the given kind."""

    def __init__(self, kind: str):
        self.kind = kind
        self.hub = None
        self.muxes = []

    async def __aenter__(self):
        if self.kind == "memory":
            self.hub = MemoryHub()
            return self.hub.endpoint(0), self.hub.endpoint(1)
        self.hub = TCPHub()
        await self.hub.start()
        port = self.hub.port
        if self.kind == "local":
            return self.hub.endpoint(0), self.hub.endpoint(1)
        if self.kind == "tcp":
            sender = await connect_tcp("127.0.0.1", port, 0)
            receiver = await connect_tcp("127.0.0.1", port, 1)
            self.muxes = [sender._mux, receiver._mux]
            return sender, receiver
        send_mux = await open_mux("127.0.0.1", port)
        recv_mux = await open_mux("127.0.0.1", port)
        self.muxes = [send_mux, recv_mux]
        return send_mux.endpoint(0), recv_mux.endpoint(1)

    async def __aexit__(self, *exc):
        for mux in self.muxes:
            await mux.close()
        if self.kind != "memory":
            await self.hub.close()


async def _poll(endpoint, deadline: float = 5.0):
    """``recv_nowait`` until a frame shows up (TCP delivery is not
    synchronous with the send)."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + deadline
    while True:
        got = endpoint.recv_nowait()
        if got is not None:
            return got
        assert loop.time() < give_up, "frame never arrived"
        await asyncio.sleep(0.005)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_queue_reads_none(kind):
    async def scenario():
        async with _Pair(kind) as (_sender, receiver):
            assert receiver.recv_nowait() is None
            assert receiver.recv_nowait() is None

    asyncio.run(scenario())


@pytest.mark.parametrize("kind", KINDS)
def test_fifo_shared_with_recv(kind):
    async def scenario():
        async with _Pair(kind) as (sender, receiver):
            for value in range(6):
                await sender.send(1, ("frame", value))
            got = []
            for index in range(6):
                if index % 2:
                    got.append(await asyncio.wait_for(receiver.recv(), 5.0))
                else:
                    got.append(await _poll(receiver))
            assert got == [(0, ("frame", value)) for value in range(6)]
            assert receiver.recv_nowait() is None

    asyncio.run(scenario())


async def _until(condition, deadline: float = 5.0):
    loop = asyncio.get_running_loop()
    give_up = loop.time() + deadline
    while not condition():
        assert loop.time() < give_up, "condition never held"
        await asyncio.sleep(0.005)


async def _reader_finished(pair):
    """Wait until the receiver's connection has seen the end of its
    stream (EOF or a frame-guard error) and queued that end."""
    await _until(lambda: pair.muxes[1].stream_ended)


async def _assert_failure_survives_nowait_reads(receiver, error):
    for _ in range(2):  # the failure repeats, nowait reads in between or not
        for _ in range(3):
            assert receiver.recv_nowait() is None
        with pytest.raises(error):
            await asyncio.wait_for(receiver.recv(), 5.0)


@pytest.mark.parametrize("kind", ["mux", "tcp"])
def test_eof_is_left_for_the_blocking_recv(kind):
    async def scenario():
        pair = _Pair(kind)
        async with pair as (sender, receiver):
            await sender.send(1, "last words")
            assert await _poll(receiver) == (0, "last words")
            await pair.hub.close()  # the receiver's EOF
            await _reader_finished(pair)
            await _assert_failure_survives_nowait_reads(
                receiver, ConnectionResetError
            )

    asyncio.run(scenario())


@pytest.mark.parametrize("kind", ["mux", "tcp"])
def test_frame_guard_error_is_left_for_the_blocking_recv(kind, monkeypatch):
    monkeypatch.setattr(TCPMux, "max_frame_bytes", 64)

    async def scenario():
        pair = _Pair(kind)
        async with pair as (sender, receiver):
            await sender.send(1, "fits")
            assert await _poll(receiver) == (0, "fits")
            await sender.send(1, "x" * 4096)
            await _reader_finished(pair)
            await _assert_failure_survives_nowait_reads(
                receiver, FrameTooLargeError
            )

    asyncio.run(scenario())


def test_a_mux_send_after_a_frame_guard_failure_raises_that_failure(monkeypatch):
    monkeypatch.setattr(TCPMux, "max_frame_bytes", 64)

    async def scenario():
        pair = _Pair("mux")
        async with pair as (sender, receiver):
            await sender.send(1, "x" * 4096)
            await _reader_finished(pair)
            with pytest.raises(FrameTooLargeError):
                await receiver.send(0, "reply")

    asyncio.run(scenario())


def test_a_mux_send_while_the_connection_closes_is_refused():
    async def scenario():
        pair = _Pair("mux")
        async with pair as (sender, _receiver):
            await pair.muxes[0].close()
            with pytest.raises(ConnectionResetError, match="closing"):
                await sender.send(1, "too late")

    asyncio.run(scenario())


def test_a_mux_send_after_eof_raises_the_end():
    async def scenario():
        pair = _Pair("mux")
        async with pair as (_sender, receiver):
            await pair.hub.close()  # the receiver's EOF
            await _reader_finished(pair)
            peer = re.escape(pair.muxes[1].peer)
            with pytest.raises(ConnectionResetError, match=peer):
                await asyncio.wait_for(receiver.send(0, "reply"), 5.0)
            # unbinding a key on an ended stream sends nothing
            await asyncio.wait_for(receiver.close(), 5.0)

    asyncio.run(scenario())


def test_a_mux_endpoint_bound_after_eof_is_refused():
    async def scenario():
        pair = _Pair("mux")
        async with pair:
            await pair.hub.close()
            await _reader_finished(pair)
            mux = pair.muxes[1]
            with pytest.raises(ConnectionResetError, match=re.escape(mux.peer)):
                late = mux.endpoint(5)
                # what a bind that succeeded would do: wait forever
                await asyncio.wait_for(late.recv(), 5.0)
            with pytest.raises(ConnectionResetError):
                mux.endpoint(5)  # the refused key was left unbound

    asyncio.run(scenario())


@pytest.mark.parametrize("kind", ["memory", "local", "mux"])
def test_a_bound_key_cannot_be_bound_twice(kind):
    async def scenario():
        pair = _Pair(kind)
        async with pair as (sender, receiver):
            owner = pair.muxes[1] if kind == "mux" else pair.hub
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                owner.endpoint(1)
            # The first binding still owns the key's mail.
            await sender.send(1, "still mine")
            assert await _poll(receiver) == (0, "still mine")
            assert receiver.recv_nowait() is None

    asyncio.run(scenario())


@pytest.mark.parametrize("owner", ["local", "remote"])
def test_a_second_connection_cannot_bind_a_bound_key(owner):
    # The same rule across a socket: a remote bind of a key attached
    # elsewhere is refused by dropping the binding connection, named in
    # last_frame_error, and the key's mail still goes to the first.
    async def scenario():
        async with _OwnerAndDialler() as (hub, first, second):
            if owner == "local":
                bound = hub.endpoint(5, 1)
            else:
                bound = first.endpoint(5, instance=1)
                await _until(lambda: (1, 5) in hub._sinks)
            thief = second.endpoint(5, instance=1)
            with pytest.raises(ConnectionResetError):
                await _recv(thief)
            error = hub.last_frame_error
            assert "binds instance 1 addr 5, which is attached already" in error
            assert re.search(r"connection \('127\.0\.0\.1', \d+\)", error)
            await hub.endpoint(0, 1).send(5, "hello")
            assert await _recv(bound) == (0, "hello")

    asyncio.run(scenario())


class _CountingProbe(TelemetryRecorder):
    def __init__(self):
        super().__init__()
        self.samples = []

    def sample(self, name, duration, track="run"):
        self.samples.append(name)


@pytest.mark.parametrize("kind", KINDS)
def test_codec_probe_counts_both_reads(kind):
    async def scenario():
        async with _Pair(kind) as (sender, receiver):
            # Past this exchange the hub has decoded both bind frames,
            # so every decode the probe sees is one of the reads below.
            await sender.send(1, "bound")
            assert await asyncio.wait_for(receiver.recv(), 5.0) == (0, "bound")
            probe = _CountingProbe()
            set_codec_probe(probe)
            try:
                await sender.send(1, "a")
                await sender.send(1, "b")
                assert await asyncio.wait_for(receiver.recv(), 5.0) == (0, "a")
                assert probe.samples.count("codec.decode") == 1
                assert await _poll(receiver) == (0, "b")
                assert probe.samples.count("codec.decode") == 2
                assert receiver.recv_nowait() is None  # an empty read decodes nothing
                assert probe.samples.count("codec.decode") == 2
            finally:
                set_codec_probe(None)

    asyncio.run(scenario())


class _OwnerAndDialler:
    """A started ``TCPHub`` (bind locally with ``hub.endpoint``) and two
    connections to it, as from two other processes."""

    async def __aenter__(self):
        self.hub = TCPHub()
        await self.hub.start()
        self.muxes = [
            await open_mux("127.0.0.1", self.hub.port),
            await open_mux("127.0.0.1", self.hub.port),
        ]
        return self.hub, *self.muxes

    async def __aexit__(self, *exc):
        for mux in self.muxes:
            await mux.close()
        await self.hub.close()


async def _recv(endpoint):
    return await asyncio.wait_for(endpoint.recv(), 5.0)


class TestLocalAndRemoteEndpointsShareOneRouter:
    """A local coordinator (address 9) and remote hosts on one hub."""

    def test_frames_sent_before_attach_are_buffered_both_ways(self):
        async def scenario():
            async with _OwnerAndDialler() as (hub, mux, _other):
                host = mux.endpoint(0, instance=3)
                await host.send(9, "to a coordinator not bound yet")
                await _until(lambda: (3, 9) in hub._pending)
                coordinator = hub.endpoint(9, 3)
                assert coordinator.recv_nowait() == (0, "to a coordinator not bound yet")
                await coordinator.send(1, "to a host not bound yet")
                assert (3, 1) in hub._pending
                late_host = mux.endpoint(1, instance=3)
                assert await _recv(late_host) == (9, "to a host not bound yet")
                assert not hub._pending

        asyncio.run(scenario())

    def test_one_destination_reads_each_sender_in_order(self):
        async def scenario():
            async with _OwnerAndDialler() as (hub, mux, other):
                coordinator = hub.endpoint(9)
                local_host = hub.endpoint(0)
                remote_host = mux.endpoint(4)
                far_host = other.endpoint(6)
                # A local and a remote sender, to a local and to a remote
                # destination, interleaved.
                for value in range(20):
                    await local_host.send(9, value)
                    await remote_host.send(9, value)
                    await coordinator.send(6, value)
                    await remote_host.send(6, value)
                for receiver, senders in ((coordinator, (0, 4)), (far_host, (9, 4))):
                    got = [await _recv(receiver) for _ in range(40)]
                    for sender in senders:
                        assert [v for src, v in got if src == sender] == list(range(20))
                    assert receiver.recv_nowait() is None

        asyncio.run(scenario())

    def test_a_reply_cannot_overtake_what_caused_it(self):
        # The REJOIN guarantee across the two kinds: what host 0 sent
        # host 1 before reporting to the coordinator is queued at host 1
        # before anything the coordinator sends on seeing that report.
        async def scenario():
            async with _OwnerAndDialler() as (hub, mux, other):
                coordinator = hub.endpoint(9)
                sender = mux.endpoint(0)
                receiver = other.endpoint(1)
                await _until(lambda: (0, 1) in hub._sinks)
                for value in range(50):
                    await sender.send(1, ("data", value))
                await sender.send(9, "sent")
                assert await _recv(coordinator) == (0, "sent")
                await coordinator.send(1, "rejoin")
                got = [await _recv(receiver) for _ in range(51)]
                assert got == [(0, ("data", v)) for v in range(50)] + [(9, "rejoin")]

        asyncio.run(scenario())

    def test_frames_to_a_detached_endpoint_are_dropped(self):
        async def scenario():
            async with _OwnerAndDialler() as (hub, mux, _other):
                coordinator = hub.endpoint(9)
                halted_local = hub.endpoint(2)
                host = mux.endpoint(0)
                halted_remote = mux.endpoint(1)
                await _until(lambda: (0, 1) in hub._sinks)
                await halted_local.close()
                await halted_remote.close()
                await _until(lambda: (0, 1) not in hub._sinks)
                delivered = [row["delivered"] for row in hub.connection_stats()]
                # remote -> detached local, local -> detached remote
                await host.send(2, "lost")
                await coordinator.send(1, "lost")
                await host.send(9, "after")  # same connection, so routed later
                assert await _recv(coordinator) == (0, "after")
                assert halted_local.recv_nowait() is None
                assert not hub._pending  # dropped, not buffered
                assert [row["delivered"] for row in hub.connection_stats()] == delivered

        asyncio.run(scenario())

    def test_purge_instance_forgets_local_and_remote_keys_alike(self):
        async def scenario():
            async with _OwnerAndDialler() as (hub, mux, _other):
                done = hub.endpoint(9, 3), mux.endpoint(0, instance=3)
                live = hub.endpoint(9, 4), mux.endpoint(0, instance=4)
                await _until(lambda: (4, 0) in hub._sinks)
                hub.purge_instance(3)
                assert {key[0] for key in hub._sinks} == {4}
                assert {key[0] for key in hub._seen} == {4}
                # Purged keys buffer again (never-attached semantics) ...
                await done[1].send(9, "late")
                await live[1].send(9, "ping")
                assert await _recv(live[0]) == (0, "ping")
                assert done[0].recv_nowait() is None
                assert [src for src, _body in hub._pending[(3, 9)]] == [0]
                # ... and the neighbour instance still answers.
                await live[0].send(0, "pong")
                assert await _recv(live[1]) == (9, "pong")
                hub.purge_instance(3)
                assert not hub._pending

        asyncio.run(scenario())

    def test_purging_one_of_many_instances_leaves_the_others_routing(self):
        """A batch of sessions on one hub: each instance has a live key,
        a detached one and mail buffered for a key not yet attached, and
        purging one instance removes exactly its keys."""

        async def scenario():
            hub = MemoryHub()
            live = {}
            for instance in range(40):
                live[instance] = hub.endpoint(0, instance), hub.endpoint(1, instance)
                await hub.endpoint(2, instance).close()
                await live[instance][0].send(3, ("early", instance))

            before = dict(hub._sinks), set(hub._seen), dict(hub._pending)
            hub.purge_instance(17)
            for old, new in zip(before, (hub._sinks, hub._seen, hub._pending)):
                assert set(new) == {key for key in old if key[0] != 17}
            for instance in (0, 16, 18, 39):
                await live[instance][1].send(0, "ping")
                assert await _recv(live[instance][0]) == (1, "ping")
                await live[instance][0].send(2, "to the detached key")
                assert (instance, 2) not in hub._pending  # dropped
                late = hub.endpoint(3, instance)
                assert await _recv(late) == (0, ("early", instance))

        asyncio.run(scenario())


class TestCloseWritesOutWhatIsQueued:
    """A local sender's frames wait in the hub's per-connection queues,
    not in a socket buffer, so ``TCPHub.close`` must let the pumps write
    them before it drops the connections -- and must not wait forever
    on a consumer that stopped reading."""

    def test_a_local_senders_last_frames_arrive_before_eof(self):
        async def scenario():
            hub = TCPHub()
            await hub.start()
            mux = await open_mux("127.0.0.1", hub.port)
            host = mux.endpoint(0)
            await _until(lambda: (0, 0) in hub._sinks)
            coordinator = hub.endpoint(9)
            for value in range(300):
                await coordinator.send(0, ("stop", value))
            await hub.close()  # no turn given to the pump in between
            got = [await _recv(host) for _ in range(300)]
            assert got == [(9, ("stop", value)) for value in range(300)]
            with pytest.raises(ConnectionResetError):
                await _recv(host)
            await mux.close()

        asyncio.run(scenario())

    def test_a_stalled_consumer_delays_close_by_the_drain_timeout_only(self):
        async def scenario():
            hub = TCPHub()
            hub.drain_timeout = 0.2
            await hub.start()
            _reader, writer = await asyncio.open_connection("127.0.0.1", hub.port)
            bind = encode(("bind", 1))
            writer.write(HEADER.pack(len(bind), 1, CONTROL, 0) + bind)
            await writer.drain()
            await _until(lambda: (0, 1) in hub._sinks)
            coordinator = hub.endpoint(9)
            for value in range(400):  # far past the socket buffers, never read
                await coordinator.send(1, value.to_bytes(2, "big") * 32768)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await hub.close()
            elapsed = loop.time() - started
            writer.close()
            return elapsed

        assert 0.2 <= asyncio.run(scenario()) < 2.0


ENDS = ["hub ingress", "mux recv"]


class _Wire(asyncio.Transport):
    """A transport that is not a socket: the test is the peer, calling
    ``data_received`` with the chunks it chooses."""

    def __init__(self):
        super().__init__({"peername": ("wire", 0)})
        self.closed = False

    def write(self, data):
        pass

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


def _connect(end, max_frame_bytes=MAX_FRAME_BYTES):
    """One end of a hub connection on a ``_Wire``, and the list every
    frame it dispatches is appended to.  Needs a running loop."""
    dispatched = []
    if end == "mux recv":
        connection = TCPMux("the hub", True)
        connection.max_frame_bytes = max_frame_bytes
        dispatch = connection._dispatch
        connection._dispatch = lambda *frame: (dispatched.append(frame), dispatch(*frame))
    else:
        hub = TCPHub()
        hub.max_frame_bytes = max_frame_bytes
        connection = _ConnSink(hub)
        ingress = hub._ingress
        hub._ingress = lambda sink, *frame: (dispatched.append(frame), ingress(sink, *frame))
    connection.connection_made(_Wire())
    return connection, dispatched


def _failure(connection) -> str:
    """What ended the connection's stream, as that end reports it."""
    if isinstance(connection, TCPMux):
        return str(connection._error)
    return connection.hub.last_frame_error


def _on_the_wire(item) -> bytes:
    if isinstance(item, list):
        body = encode_batch(item)
        return HEADER.pack(len(body), -1, BATCH, 0) + body
    src, dst, instance, body = item
    return HEADER.pack(len(body), src, dst, instance) + body


_plain = st.tuples(
    st.integers(0, 9), st.integers(0, 9), st.integers(0, 3), st.binary(max_size=40)
)
_control = st.builds(
    lambda op, addr, instance: (addr, CONTROL, instance, encode((op, addr))),
    st.sampled_from(["bind", "unbind"]),
    st.integers(0, 9),
    st.integers(0, 3),
)
_frame = st.one_of(_plain, _control)


class TestChunkingDoesNotShow:
    @pytest.mark.parametrize("end", ENDS)
    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(st.one_of(_frame, st.lists(_frame, max_size=5)), max_size=8),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
    )
    def test_any_split_dispatches_the_same_frames(self, end, items, sizes):
        stream = b"".join(map(_on_the_wire, items))
        sent = [f for item in items for f in (item if isinstance(item, list) else [item])]

        async def dispatched_when_cut_into(sizes):
            connection, dispatched = _connect(end)
            size, start = cycle(sizes), 0
            while start < len(stream):
                step = next(size)
                connection.data_received(stream[start : start + step])
                start += step
            assert not connection.stream_ended and not connection._inbound
            return dispatched

        # One chunk, byte at a time, every header straddling two chunks,
        # and whatever hypothesis drew.
        for cut in ([len(stream) + 1], [1], [HEADER.size - 1, 2], sizes):
            assert asyncio.run(dispatched_when_cut_into(cut)) == sent

    @pytest.mark.parametrize("end", ENDS)
    def test_the_guard_fires_on_a_header_alone(self, end):
        async def scenario():
            connection, dispatched = _connect(end, max_frame_bytes=64)
            header = HEADER.pack(2**31, 5, 3, 9)
            connection.data_received(header[:-1])
            assert not connection.stream_ended
            connection.data_received(header[-1:])  # not one body byte
            assert connection.stream_ended and not dispatched
            failure = _failure(connection)
            assert "over the 64-byte limit" in failure
            assert f"({end})" in failure and "instance 9" in failure
            # The hub drops the connection; a mux is closed by its owner.
            assert connection._transport.closed == (end == "hub ingress")
            connection.data_received(_on_the_wire((0, 1, 0, b"late")))
            assert not dispatched

        asyncio.run(scenario())

    @pytest.mark.parametrize("end", ENDS)
    def test_a_corrupt_batch_ends_the_stream_with_a_value_error(self, end):
        async def scenario():
            connection, dispatched = _connect(end)
            body = encode_batch([(0, 1, 0, b"payload")])[:-3]
            connection.data_received(_on_the_wire((0, 1, 0, b"fine")))
            connection.data_received(HEADER.pack(len(body), -1, BATCH, 0) + body)
            assert connection.stream_ended
            assert dispatched == [(0, 1, 0, b"fine")]
            failure = _failure(connection)
            assert "corrupt batch frame" in failure and f"({end} (batch))" in failure
            if end == "mux recv":
                assert type(connection._error) is ValueError

        asyncio.run(scenario())


def test_every_routed_frame_is_counted_in_the_queue():
    # ``deliver`` never writes through: a frame is in the connection's
    # outbound queue before it is in its transport, whoever sent it.
    async def scenario():
        async with _OwnerAndDialler() as (hub, mux, other):
            receiver = other.endpoint(1)
            remote, local = mux.endpoint(0), hub.endpoint(9)
            await _until(lambda: (0, 1) in hub._sinks)
            for value in range(7):
                await remote.send(1, value)
            for value in range(5):
                await local.send(1, value)
            got = [await _recv(receiver) for _ in range(12)]
            assert [src for src, _value in got].count(0) == 7
            rows = {row["peer"].split("bound: ")[-1]: row for row in hub.connection_stats()}
            assert rows["instance 0 addr 1)"]["delivered"] == 12
            assert rows["instance 0 addr 1)"]["queue_hwm"] >= 1
            assert rows["instance 0 addr 0)"]["delivered"] == 0

    asyncio.run(scenario())
