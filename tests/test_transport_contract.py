"""``Endpoint.recv_nowait`` on the three endpoint kinds.

The round coordinator drains its queue with ``recv_nowait`` and only
then pays a suspension in ``recv`` (see ``Session._recv``), so the two
must read one FIFO stream through one decode path, and the non-blocking
read must never eat the failure a dead connection owes the blocking one.
"""

import asyncio

import pytest

from repro.net import FrameTooLargeError, MemoryHub, TCPHub, connect_tcp, open_mux
from repro.net.codec import set_codec_probe
from repro.obs.recorder import Recorder

KINDS = ["memory", "mux", "tcp"]


class _Pair:
    """Endpoints at addresses 0 and 1 of one hub of the given kind."""

    def __init__(self, kind: str, **receiver_options):
        self.kind = kind
        self.receiver_options = receiver_options
        self.hub = None
        self.muxes = []

    async def __aenter__(self):
        if self.kind == "memory":
            self.hub = MemoryHub()
            return self.hub.endpoint(0), self.hub.endpoint(1)
        self.hub = TCPHub()
        await self.hub.start()
        port = self.hub.port
        if self.kind == "tcp":
            sender = await connect_tcp("127.0.0.1", port, 0)
            receiver = await connect_tcp("127.0.0.1", port, 1, **self.receiver_options)
            self.muxes = [sender._mux, receiver._mux]
            return sender, receiver
        send_mux = await open_mux("127.0.0.1", port)
        recv_mux = await open_mux("127.0.0.1", port, **self.receiver_options)
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


async def _reader_finished(receiver, deadline: float = 5.0):
    """Wait until the receiver's connection reader has seen the end of
    its stream (EOF or a frame-guard error) and queued the sentinel."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + deadline
    while not receiver._mux._reader_task.done():
        assert loop.time() < give_up, "reader never finished"
        await asyncio.sleep(0.005)


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
            await _reader_finished(receiver)
            await _assert_failure_survives_nowait_reads(
                receiver, ConnectionResetError
            )

    asyncio.run(scenario())


@pytest.mark.parametrize("kind", ["mux", "tcp"])
def test_frame_guard_error_is_left_for_the_blocking_recv(kind):
    async def scenario():
        async with _Pair(kind, max_frame_bytes=64) as (sender, receiver):
            await sender.send(1, "fits")
            assert await _poll(receiver) == (0, "fits")
            await sender.send(1, "x" * 4096)
            await _reader_finished(receiver)
            await _assert_failure_survives_nowait_reads(
                receiver, FrameTooLargeError
            )

    asyncio.run(scenario())


class _CountingProbe(Recorder):
    enabled = True

    def __init__(self):
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
