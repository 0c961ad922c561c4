"""The codec frame on an asyncio stream.

Every socket carries :mod:`repro.net.codec` frames -- ``HEADER`` plus an
:func:`~repro.net.codec.encode`-d body -- parsed by the transports'
``asyncio.Protocol`` connections, the run-server's client API included.
These two helpers speak the same frame over a stream reader / writer
pair, for code that holds one: a raw test client, or a probe timing the
framing alone.  :func:`read_msg` reads one unbatched frame (what
:func:`send_msg` writes), held to the frame-size guard before its body.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.net.codec import HEADER, check_frame_size, decode, encode

__all__ = ["read_msg", "send_msg"]


def send_msg(writer: asyncio.StreamWriter, obj: Any) -> None:
    """Frame and buffer one message (caller drains)."""
    body = encode(obj)
    writer.write(HEADER.pack(len(body), 0, 0, 0) + body)


async def read_msg(reader: asyncio.StreamReader, *, peer: str) -> Any:
    """Read one frame; raises ``IncompleteReadError`` on EOF."""
    length, _src, _dst, instance = HEADER.unpack(await reader.readexactly(HEADER.size))
    check_frame_size(length, peer=peer, phase="serve message", instance=instance)
    return decode(await reader.readexactly(length))
