"""Wire format shared by every transport.

A frame is one pickled Python object with a fixed binary header.  Both
transports move *encoded bytes* -- the in-memory hub too -- so payload
serialisability is exercised uniformly: anything that runs over the
memory transport runs over TCP unchanged.

Pickle is the codec because protocol payloads are arbitrary Python
values (ints, tuples, ``SetDelta``/``Signature`` objects exposing
``bits_size``).  That makes the runtime a *trusted-cluster* transport:
frames are only ever exchanged between mutually trusting worker
processes of one experiment, never with untrusted peers.

Header layout (big-endian, both directions)::

    [u32 body_len][i32 src][i32 dst][u32 instance]

``instance`` is the protocol-instance tag: the hubs route by
``(instance, dst)``, so one physical connection can carry frames for
many concurrent protocol instances (see
:class:`~repro.net.transport.TCPMux`).  Single-instance runs use
instance ``0`` throughout.  Two destination addresses are reserved:

* :data:`CONTROL` (``-1``) -- hub control frames.  The body is a
  pickled ``("bind", addr)`` / ``("unbind", addr)`` tuple; the header's
  ``instance`` names the instance being (un)bound.  Binding attaches
  ``(instance, addr)`` to the sending connection's routing entry.
* :data:`BATCH` (``-2``) -- a *batch* frame: many inner frames
  coalesced into one wire write (see :func:`encode_batch`).

Frame batching
--------------
A batch frame's body is a blob table followed by an entry table::

    [u32 nblobs] { [u32 blob_len] blob }*
    [u32 nframes] { [i32 src][i32 dst][u32 instance][u32 blob_idx] }*

Entries reference blobs by index, so a payload pickled once is written
once per batch no matter how many frames carry it -- a multicast's
fan-out, or a thousand sessions' identical ``START`` bodies, intern to
a single blob (*shared-pickle payload interning*).  Batches never
reorder: entry order is send order, and receivers route entries in
order, preserving the transports' FIFO contract.

Frame-size guard
----------------
The ``u32`` length field can nominally announce a body of up to 4 GiB;
a corrupt or truncated frame (one flipped length byte, a reader
desynchronised mid-stream) would make ``readexactly`` await -- and
eventually allocate -- that much before anything notices.
:func:`check_frame_size` bounds every announced length *before* the
body is read: the TCP hub's ingress loop and every connection reader
validate against a configurable limit (:data:`MAX_FRAME_BYTES` by
default; :data:`MAX_BATCH_BYTES` for whole batch frames) and fail fast
with :class:`FrameTooLargeError` naming the peer, the read phase and --
for batched frames -- the instance, instead of stalling the round
barrier on a multi-gigabyte read.  Batched frames are guarded twice:
the whole batch at the header read, and every inner frame's blob at
:func:`decode_batch` time.  The paper's protocols exchange payloads of
at most a few ``n``-bit sets, so the default limits are generous by
orders of magnitude.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Iterable

__all__ = [
    "BATCH",
    "CONTROL",
    "HEADER",
    "MAX_BATCH_BYTES",
    "MAX_FRAME_BYTES",
    "FrameTooLargeError",
    "check_frame_size",
    "decode",
    "decode_batch",
    "encode",
    "encode_batch",
    "set_codec_probe",
]

#: Optional telemetry probe (see :mod:`repro.obs`): when set, every
#: :func:`encode` / :func:`decode` call aggregates its wall-clock cost
#: into the recorder's ``codec.encode`` / ``codec.decode`` phase stats
#: via :meth:`~repro.obs.Recorder.sample` -- aggregates only, never
#: per-frame events, so a million-frame run stays cheap to profile.
#: Unset (the default), the cost is one module-global truth test per
#: call.
_PROBE: Any = None


def set_codec_probe(recorder: Any) -> None:
    """Install (or with ``None`` remove) the codec timing probe.

    The probe is process-global because the codec is: the net runners
    install it for the duration of one instrumented run and remove it
    in their cleanup path.  Runs without telemetry never touch it.
    """
    global _PROBE
    _PROBE = recorder if recorder is not None and recorder.enabled else None

#: ``(body_len, src, dst, instance)`` -- the one header layout, both
#: directions; the hub routes by ``(instance, dst)`` without rewriting.
HEADER = struct.Struct(">IiiI")

#: Reserved destination: hub control frames (bind/unbind).
CONTROL = -1

#: Reserved destination: batch frames (see :func:`encode_batch`).
BATCH = -2

_U32 = struct.Struct(">I")
_ENTRY = struct.Struct(">iiII")

#: Default ceiling on one frame body, in bytes (64 MiB).  Far above any
#: legitimate protocol payload at simulation scale, far below the 4 GiB
#: a corrupt ``u32`` length header can announce.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default ceiling on one *batch* frame body (256 MiB).  A batch
#: coalesces many inner frames, so its envelope is allowed more than a
#: single frame; every inner frame is still held to the per-frame limit
#: by :func:`decode_batch`.
MAX_BATCH_BYTES = 4 * MAX_FRAME_BYTES


class FrameTooLargeError(RuntimeError):
    """A frame header announced a body beyond the configured limit.

    Raised *before* the body is read (or, for a batch's inner frames,
    before the blob is routed), so a corrupt or oversized frame
    surfaces as a named error at the reader instead of an unbounded
    ``readexactly`` await.  The message carries the peer, the read
    phase and -- when known -- the protocol instance, for triage.
    """


def check_frame_size(
    length: int,
    *,
    limit: int = MAX_FRAME_BYTES,
    peer: str,
    phase: str,
    instance: int | None = None,
) -> int:
    """Validate an announced frame-body length against ``limit``.

    Returns ``length`` unchanged when acceptable; raises
    :class:`FrameTooLargeError` naming ``peer`` (who sent the header),
    ``phase`` (which read loop hit it) and, when given, the protocol
    ``instance`` the frame belongs to.  The guard has no off switch: it
    protects every read from a listening socket.
    """
    if length > limit:
        where = f" for instance {instance}" if instance is not None else ""
        raise FrameTooLargeError(
            f"frame from {peer}{where} announces a {length}-byte body, over "
            f"the {limit}-byte limit ({phase}); the stream is corrupt or the "
            "peer is misbehaving -- dropping the connection instead of "
            "reading it"
        )
    return length


def encode(obj: Any) -> bytes:
    """Serialise one frame body.

    The codec is round-agnostic: round numbers, phase tags and send
    sequence numbers live *inside* the frame tuple
    (:mod:`repro.net.runtime` defines the frame kinds), so the wire
    format never changes when the round protocol grows.  A body that
    goes to several destinations is encoded once and fanned out via
    :meth:`~repro.net.transport.Endpoint.send_encoded`.
    """
    probe = _PROBE
    if probe is None:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    start = probe.clock()
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    probe.sample("codec.encode", probe.clock() - start)
    return body


def decode(body: bytes) -> Any:
    """Deserialise one frame body.

    Always produces a fresh object graph — even over the in-memory
    transport a frame arrives as an equal *copy*, never the sender's
    instance.  The round runtime decodes one ``DATA`` bundle per
    destination host, so a payload is copied once per host: the
    receivers behind one host share that copy (as the engine's receivers
    share the sender's object), receivers behind different hosts and the
    sender never share one.
    """
    probe = _PROBE
    if probe is None:
        return pickle.loads(body)
    start = probe.clock()
    obj = pickle.loads(body)
    probe.sample("codec.decode", probe.clock() - start)
    return obj


def encode_batch(frames: Iterable[tuple[int, int, int, bytes]]) -> bytes:
    """Coalesce ``(src, dst, instance, body)`` frames into one batch body.

    Bodies are interned: frames carrying the same payload bytes (same
    object, or equal value -- a multicast fan-out, or many sessions'
    identical control frames) share one blob, referenced by index.  The
    wire cost of a ``k``-destination multicast is therefore one payload
    plus ``k`` fixed-size entries, and a thousand concurrent sessions'
    simultaneous ``START(r)`` frames cost one body.  Entry order is
    frame order, so batching never reorders a connection's stream.
    """
    blobs: list[bytes] = []
    by_id: dict[int, int] = {}
    by_value: dict[bytes, int] = {}
    parts_entries: list[bytes] = []
    for src, dst, instance, body in frames:
        idx = by_id.get(id(body))
        if idx is None:
            idx = by_value.get(body)
            if idx is None:
                idx = len(blobs)
                blobs.append(body)
                by_value[body] = idx
            by_id[id(body)] = idx
        parts_entries.append(_ENTRY.pack(src, dst, instance, idx))
    parts: list[bytes] = [_U32.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    parts.append(_U32.pack(len(parts_entries)))
    parts.extend(parts_entries)
    return b"".join(parts)


def decode_batch(
    body: bytes,
    *,
    limit: int = MAX_FRAME_BYTES,
    peer: str,
    phase: str,
) -> list[tuple[int, int, int, bytes]]:
    """Unpack a batch body into ``(src, dst, instance, blob)`` frames.

    The max-frame guard is enforced *per inner frame*: every entry's
    blob length is checked against the single-frame ``limit`` (the
    whole-batch envelope was already checked at the header read), and a
    violation raises :class:`FrameTooLargeError` naming the peer, the
    phase and the offending frame's instance.  A structurally corrupt
    batch (truncated tables, out-of-range blob index) raises
    ``ValueError`` -- like the guard, before anything is routed.
    """
    view = memoryview(body)
    offset = 0
    try:
        (nblobs,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        blob_spans: list[tuple[int, int]] = []
        for _ in range(nblobs):
            (blob_len,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            if offset + blob_len > len(view):
                raise ValueError("truncated blob")
            blob_spans.append((offset, blob_len))
            offset += blob_len
        (nframes,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        entries = []
        for _ in range(nframes):
            entries.append(_ENTRY.unpack_from(view, offset))
            offset += _ENTRY.size
    except struct.error as exc:
        raise ValueError(f"corrupt batch frame from {peer} ({phase}): {exc}")
    blobs: list[bytes | None] = [None] * nblobs
    frames: list[tuple[int, int, int, bytes]] = []
    for src, dst, instance, idx in entries:
        if not 0 <= idx < nblobs:
            raise ValueError(
                f"corrupt batch frame from {peer} ({phase}): "
                f"blob index {idx} out of range"
            )
        start, blob_len = blob_spans[idx]
        check_frame_size(
            blob_len, limit=limit, peer=peer, phase=phase, instance=instance
        )
        blob = blobs[idx]
        if blob is None:
            blob = blobs[idx] = bytes(view[start : start + blob_len])
        frames.append((src, dst, instance, blob))
    return frames
