"""Async client for the run-server's submit/stream API.

One :class:`ServeClient` is one TCP connection, and an
``asyncio.Protocol`` on the hub connections' own design
(:class:`repro.net.transport._Connection`: codec frames, the frame-size
guard, one batched write per event-loop turn).  The turn a server
message arrives in hands it to the pending request's future or the
watch queue, so any number of submissions and watches can be in flight
at once, with no task of the connection's own.

    client = await ServeClient.connect(host, port)
    run_id = await client.submit({"name": "flooding", ...})
    updates = client.watch(run_id)          # asyncio.Queue of updates
    result = await client.result(run_id)    # the full RunResult
"""

from __future__ import annotations

import asyncio
import itertools
from functools import partial
from typing import Any, Optional

from repro.net.codec import encode
from repro.net.transport import _Connection, _dial, _wait_closed

__all__ = ["ServeClient"]


class ServeClient(_Connection):
    """One connection to a :class:`~repro.serve.server.RunServer`."""

    phase = "serve reply"

    def __init__(self, peer: str):
        super().__init__(peer, batching=True)
        self._tokens = itertools.count()
        self._submits: dict[int, asyncio.Future] = {}
        self._results: dict[str, asyncio.Future] = {}
        self._status: list[asyncio.Future] = []
        self._watches: dict[str, asyncio.Queue] = {}
        #: what ended the connection, once it is gone
        self._error: Optional[BaseException] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        """Dial a run-server, retrying as :func:`~repro.net.transport.open_mux` does."""
        return await _dial(partial(cls, f"run-server {host}:{port}"), host, port)

    def _dispatch(self, src: int, dst: int, instance: int, body: bytes) -> None:
        msg = self._decode(body)
        kind = msg[0]
        if kind == "accepted":
            _, token, run_id = msg
            fut = self._submits.pop(token, None)
            if fut is not None and not fut.done():
                fut.set_result(run_id)
        elif kind == "result":
            _, run_id, result = msg
            fut = self._results.pop(run_id, None)
            if fut is not None and not fut.done():
                fut.set_result(result)
        elif kind in ("update", "done"):
            _, run_id, info = msg
            queue = self._watches.get(run_id)
            if queue is not None:
                queue.put_nowait((kind, info))
        elif kind == "status":
            if self._status:
                fut = self._status.pop(0)
                if not fut.done():
                    fut.set_result(msg[1])
        elif kind == "error":
            _, ref, text = msg
            fut = self._submits.pop(ref, None) or self._results.pop(ref, None)
            if fut is None and ref in self._watches:
                self._watches.pop(ref).put_nowait(("error", text))
            elif fut is not None and not fut.done():
                fut.set_exception(RuntimeError(f"run-server error: {text}"))

    def _on_stream_end(self, error: Optional[Exception]) -> None:
        # EOF, a lost connection, a frame-guard or decode failure, or
        # close(): every pending request fails with it, every watch ends.
        self._error = error = error or ConnectionResetError(
            "run-server connection closed"
        )
        for fut in (*self._submits.values(), *self._results.values(), *self._status):
            if not fut.done():
                fut.set_exception(error)
        for queue in self._watches.values():
            queue.put_nowait(("closed", None))
        self._transport.close()

    def _check_open(self) -> None:
        """Fail a request at once when the connection is already gone."""
        if self._error is not None:
            raise ConnectionResetError(
                f"run-server connection is gone: {self._error}"
            )

    def _send(self, msg: tuple) -> None:
        self._enqueue((0, 0, 0, encode(msg)))

    async def submit(
        self, protocol: dict, execution: Optional[dict] = None
    ) -> str:
        """Submit one recipe; returns the server-assigned ``run_id``."""
        self._check_open()
        token = next(self._tokens)
        self._send(("submit", token, protocol, dict(execution or {})))
        fut = self._submits[token] = self._loop.create_future()
        return await fut

    def watch(self, run_id: str) -> asyncio.Queue:
        """Subscribe to a run's progress; returns a queue of ``(kind,
        info)`` pairs: ``("update", info)`` per round, then one of
        ``("done", info)``; ``("error", text)`` -- the server refused the
        watch, the ``run_id`` being unknown or its result already
        collected; or ``("closed", None)`` -- the connection is gone."""
        queue = self._watches.get(run_id)
        if queue is None:
            queue = asyncio.Queue()
            if self._error is not None:
                queue.put_nowait(("closed", None))
                return queue
            self._watches[run_id] = queue
            self._send(("watch", run_id))
        return queue

    async def result(self, run_id: str) -> Any:
        """Await a run's completion; returns its ``RunResult``."""
        fut = self._results.get(run_id)
        if fut is None:
            self._check_open()
            self._send(("result", run_id))
            fut = self._results[run_id] = self._loop.create_future()
        return await fut

    async def status(self) -> dict:
        """Fetch the server's gauges (active/peak/completed counts)."""
        self._check_open()
        self._send(("status",))
        fut = self._loop.create_future()
        self._status.append(fut)
        return await fut

    async def close(self) -> None:
        """Write out the queued requests and close; what is still
        pending fails, and every watch reads ``("closed", None)``."""
        self._write_pending()
        self._end_stream(ConnectionResetError("client closed"))
        await _wait_closed([self], 5.0)
