"""The codec max-frame guard: corrupt length headers fail fast.

The ``[u32 body_len]`` header can announce up to 4 GiB; one corrupt or
truncated frame used to make the reader await (and eventually allocate)
that much.  The guard bounds every announced length *before* the body
read, on both read loops -- hub ingress and mux recv -- failing with an
error that names the peer, the phase and the protocol instance.  Batch
frames are guarded twice: the whole envelope at the header read
(``MAX_BATCH_BYTES``-class limit) and every inner frame's blob at
decode time (per-frame limit).
"""

import asyncio

import pytest

from repro.net import FrameTooLargeError, MAX_FRAME_BYTES, TCPHub, TCPMux, connect_tcp
from repro.net.codec import (
    BATCH,
    HEADER,
    check_frame_size,
    decode_batch,
    encode,
    encode_batch,
)


class TestCheckFrameSize:
    def test_accepts_reasonable_lengths(self):
        assert check_frame_size(0, peer="p", phase="x") == 0
        assert (
            check_frame_size(MAX_FRAME_BYTES, peer="p", phase="x")
            == MAX_FRAME_BYTES
        )

    def test_rejects_oversize_naming_peer_and_phase(self):
        with pytest.raises(FrameTooLargeError) as excinfo:
            check_frame_size(
                2**31,
                limit=1024,
                peer="endpoint address 7",
                phase="hub ingress",
            )
        message = str(excinfo.value)
        assert "endpoint address 7" in message
        assert "hub ingress" in message
        assert "1024" in message

    def test_names_instance_when_given(self):
        with pytest.raises(FrameTooLargeError) as excinfo:
            check_frame_size(
                2**31, limit=1024, peer="p", phase="x", instance=17
            )
        assert "instance 17" in str(excinfo.value)

    def test_negative_limit_does_not_disable_guard(self):
        with pytest.raises(FrameTooLargeError):
            check_frame_size(2**31, limit=-1, peer="p", phase="x")


class TestBatchGuard:
    """Satellite: the guard applies per inner frame *and* per batch."""

    def test_inner_frame_over_limit_names_instance_peer_phase(self):
        big = b"x" * 2048
        body = encode_batch([(0, 1, 42, b"ok"), (2, 3, 42, big)])
        with pytest.raises(FrameTooLargeError) as excinfo:
            decode_batch(body, limit=1024, peer="worker 3", phase="hub ingress")
        message = str(excinfo.value)
        assert "instance 42" in message
        assert "worker 3" in message
        assert "hub ingress" in message

    def test_inner_frames_under_limit_pass(self):
        frames = [(0, 1, 7, b"aa"), (1, 0, 7, b"bb"), (2, 1, 8, b"aa")]
        body = encode_batch(frames)
        assert decode_batch(body, limit=1024, peer="p", phase="x") == frames

    def test_payload_interning_shares_blobs(self):
        shared = encode(("start", 5))
        frames = [(3, pid, 1, shared) for pid in range(100)]
        body = encode_batch(frames)
        # 100 frames, one blob: far smaller than 100 copies.
        assert len(body) < len(shared) + 100 * 16 + 64
        assert decode_batch(body, peer="p", phase="x") == frames

    def test_value_equal_payloads_intern(self):
        a, b = b"same-bytes", bytes(bytearray(b"same-bytes"))
        assert a is not b
        body = encode_batch([(0, 1, 0, a), (1, 0, 0, b)])
        one = encode_batch([(0, 1, 0, a), (1, 0, 0, a)])
        assert len(body) == len(one)

    def test_corrupt_batch_raises_value_error(self):
        body = encode_batch([(0, 1, 0, b"payload")])
        with pytest.raises(ValueError):
            decode_batch(body[: len(body) - 3], peer="p", phase="x")

    def test_out_of_range_blob_index_raises(self):
        # One blob, one entry referencing blob 5.
        import struct

        body = (
            struct.pack(">I", 1)
            + struct.pack(">I", 2)
            + b"ok"
            + struct.pack(">I", 1)
            + struct.pack(">iiII", 0, 1, 0, 5)
        )
        with pytest.raises(ValueError) as excinfo:
            decode_batch(body, peer="p", phase="x")
        assert "blob index" in str(excinfo.value)

    def test_whole_batch_limit_enforced_at_hub(self, monkeypatch):
        """A batch envelope over max_batch_bytes is rejected at the
        header read, before the body is awaited."""
        monkeypatch.setattr(TCPHub, "max_batch_bytes", 1024)

        async def scenario():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", hub.port
                )
                writer.write(HEADER.pack(2**31, -1, BATCH, 0))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), timeout=5.0)
                assert eof == b""
                writer.close()
                assert "batch" in hub.last_frame_error
            finally:
                await hub.close()

        asyncio.run(scenario())


class TestEndpointRecvGuard:
    def test_oversize_frame_raises_before_body_read(self, monkeypatch):
        """A corrupt header arriving at a connected endpoint surfaces as
        FrameTooLargeError from recv(), naming instance and phase."""
        monkeypatch.setattr(TCPMux, "max_frame_bytes", 64)

        async def scenario():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            try:
                victim = await connect_tcp("127.0.0.1", hub.port, 3)
                # Reach under the endpoint and hand its connection a
                # corrupt header as if the socket had delivered it.
                victim._mux.data_received(HEADER.pack(2**31, 5, 3, 9))
                with pytest.raises(FrameTooLargeError) as excinfo:
                    await asyncio.wait_for(victim.recv(), timeout=5.0)
                message = str(excinfo.value)
                assert "instance 9" in message
                assert "mux recv" in message
                await victim.close()
            finally:
                await hub.close()

        asyncio.run(scenario())

    def test_normal_frame_passes(self):
        async def scenario():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            try:
                a = await connect_tcp("127.0.0.1", hub.port, 2)
                b = await connect_tcp("127.0.0.1", hub.port, 0)
                await a.send(0, ("ping", 1))
                src, obj = await asyncio.wait_for(b.recv(), timeout=5.0)
                await a.close()
                await b.close()
                return src, obj
            finally:
                await hub.close()

        src, obj = asyncio.run(scenario())
        assert (src, obj) == (2, ("ping", 1))


class TestHubIngressGuard:
    def test_poisoned_connection_dropped_hub_survives(self, monkeypatch):
        """A connection announcing an oversized frame is dropped before
        the body is read; healthy endpoints keep working."""
        monkeypatch.setattr(TCPHub, "max_frame_bytes", 1024)

        async def scenario():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            try:
                good_a = await connect_tcp("127.0.0.1", hub.port, 0)
                good_b = await connect_tcp("127.0.0.1", hub.port, 1)
                # A raw attacker/corrupt endpoint.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", hub.port
                )
                writer.write(HEADER.pack(2**31, 9, 0, 4))  # 2 GiB announced
                await writer.drain()
                # The hub must close the poisoned connection (EOF), not
                # wait for 2 GiB.
                eof = await asyncio.wait_for(reader.read(1), timeout=5.0)
                assert eof == b""
                writer.close()
                assert "instance 4" in hub.last_frame_error
                # Healthy traffic still flows through the same hub.
                await good_a.send(1, ("hello", 42))
                src, obj = await asyncio.wait_for(good_b.recv(), timeout=5.0)
                assert (src, obj) == (0, ("hello", 42))
                await good_a.close()
                await good_b.close()
            finally:
                await hub.close()

        asyncio.run(scenario())

    def test_legit_traffic_under_small_limit(self, monkeypatch):
        """Frames under the limit pass untouched even when the limit is
        tiny -- the guard never rewrites or truncates."""
        monkeypatch.setattr(TCPHub, "max_frame_bytes", 4096)
        monkeypatch.setattr(TCPMux, "max_frame_bytes", 4096)

        async def scenario():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            try:
                a = await connect_tcp("127.0.0.1", hub.port, 0)
                b = await connect_tcp("127.0.0.1", hub.port, 1)
                payload = ("bulk", list(range(100)))
                await a.send(1, payload)
                src, obj = await asyncio.wait_for(b.recv(), timeout=5.0)
                assert (src, obj) == (0, payload)
                await a.close()
                await b.close()
            finally:
                await hub.close()

        asyncio.run(scenario())
