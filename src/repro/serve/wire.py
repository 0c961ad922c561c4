"""Client-facing wire helpers for the run-server.

The submit/stream API speaks the simplest possible framing -- a ``u32``
length prefix and a pickled tuple -- over one TCP connection per
client.  Like :mod:`repro.net.codec` this is a *trusted-cluster*
protocol: the server and its clients are processes of one experiment,
never untrusted peers.  The same max-frame guard applies: a corrupt
length header fails fast with a named error instead of a gigabyte
``readexactly``.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any

from repro.net.codec import MAX_FRAME_BYTES, check_frame_size

__all__ = ["MSG_HEADER", "read_msg", "send_msg"]

MSG_HEADER = struct.Struct(">I")


def send_msg(writer: asyncio.StreamWriter, obj: Any) -> None:
    """Frame and buffer one message (caller drains)."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    writer.write(MSG_HEADER.pack(len(body)) + body)


async def read_msg(
    reader: asyncio.StreamReader,
    *,
    peer: str,
) -> Any:
    """Read one framed message; raises ``IncompleteReadError`` on EOF."""
    header = await reader.readexactly(MSG_HEADER.size)
    (length,) = MSG_HEADER.unpack(header)
    check_frame_size(length, limit=MAX_FRAME_BYTES, peer=peer, phase="serve message")
    body = await reader.readexactly(length)
    return pickle.loads(body)
