"""Async client for the run-server's submit/stream API.

One :class:`ServeClient` is one TCP connection; a background reader
task demultiplexes server messages to the pending request futures and
watch queues, so any number of submissions and watches can be in
flight at once.

    client = await ServeClient.connect(host, port)
    run_id = await client.submit({"name": "flooding", ...})
    updates = client.watch(run_id)          # asyncio.Queue of updates
    result = await client.result(run_id)    # the full RunResult
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Optional

from repro.net.transport import CONNECT_DEADLINE
from repro.serve.wire import read_msg, send_msg

__all__ = ["ServeClient"]


class ServeClient:
    """One connection to a :class:`~repro.serve.server.RunServer`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._tokens = itertools.count()
        self._submits: dict[int, asyncio.Future] = {}
        self._results: dict[str, asyncio.Future] = {}
        self._status: list[asyncio.Future] = []
        self._watches: dict[str, asyncio.Queue] = {}
        #: the reader's terminal error, once the connection is gone
        self._error: Optional[BaseException] = None
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        loop = asyncio.get_running_loop()
        give_up = loop.time() + CONNECT_DEADLINE
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                return cls(reader, writer)
            except OSError:
                if loop.time() >= give_up:
                    raise
                await asyncio.sleep(0.05)

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                msg = await read_msg(self._reader, peer="run-server")
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
                    fut = self._submits.pop(ref, None) or self._results.pop(
                        ref, None
                    )
                    if fut is None and ref in self._watches:
                        self._watches.pop(ref).put_nowait(("error", text))
                    elif fut is not None and not fut.done():
                        fut.set_exception(RuntimeError(f"run-server error: {text}"))
        except (asyncio.IncompleteReadError, ConnectionError):
            error = ConnectionResetError("run-server connection closed")
        except asyncio.CancelledError:
            error = ConnectionResetError("client closed")
        except Exception as exc:
            error = exc
        finally:
            self._error = error = error or ConnectionResetError()
            for fut in (
                list(self._submits.values())
                + list(self._results.values())
                + self._status
            ):
                if not fut.done():
                    fut.set_exception(error)
            for queue in self._watches.values():
                queue.put_nowait(("closed", None))

    def _check_open(self) -> None:
        """Fail a request at once when the connection is already gone."""
        if self._error is not None:
            raise ConnectionResetError(
                f"run-server connection is gone: {self._error}"
            )

    async def _send(self, msg: tuple) -> None:
        send_msg(self._writer, msg)
        await self._writer.drain()

    async def submit(
        self, protocol: dict, execution: Optional[dict] = None
    ) -> str:
        """Submit one recipe; returns the server-assigned ``run_id``."""
        self._check_open()
        token = next(self._tokens)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._submits[token] = fut
        await self._send(("submit", token, protocol, dict(execution or {})))
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
            # Buffered, not drained: a watch is a few bytes, and a failed
            # write ends the reader, which closes the queue.
            send_msg(self._writer, ("watch", run_id))
        return queue

    async def result(self, run_id: str) -> Any:
        """Await a run's completion; returns its ``RunResult``."""
        fut = self._results.get(run_id)
        if fut is None:
            self._check_open()
            fut = asyncio.get_running_loop().create_future()
            self._results[run_id] = fut
            await self._send(("result", run_id))
        return await fut

    async def status(self) -> dict:
        """Fetch the server's gauges (active/peak/completed counts)."""
        self._check_open()
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._status.append(fut)
        await self._send(("status",))
        return await fut

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
