"""The long-lived run-server: many protocol instances, one hub.

:class:`RunServer` owns one hub and advances any number of
:class:`~repro.net.runtime.Session` coordinators concurrently on its
event loop.  Each submitted recipe becomes one session: a fresh
instance id, a coordinator endpoint and one host endpoint
(:func:`~repro.net.runtime.run_nodes`, all ``n`` processes in one
task), told apart on the shared hub by the instance tag -- a thousand
concurrent instances cost two tasks each and no socket of their own.

Host placement: the server binds everything it runs itself -- every
coordinator, the worker-control endpoint and, with ``workers=0``, every
session's host task -- directly on its hub (``hub.endpoint(...)``: real
frames, real routing, no socket), so a frame crosses a socket only where
a process boundary is.  With ``workers=0`` there is none: the hub is a
:class:`~repro.net.transport.MemoryHub` and the server opens no socket
until :meth:`RunServer.listen`.  With ``workers=k`` the hub is a
:class:`~repro.net.transport.TCPHub` and whole sessions are sharded
round-robin across ``k`` spawned worker processes
(:mod:`repro.serve.worker`), each on one batching hub connection
(:class:`~repro.net.transport.TCPMux`): a coordinator<->host frame
crosses exactly one socket.  Either way the per-session result is
``check_parity``-identical to ``run_recipe(protocol, backend="sim")``
with the same execution arguments: sessions replicate the entry points'
fault-schedule and round-bound defaults through
:func:`repro.api.prepare_recipe`, and the barrier itself is the
parity-certified net runtime.

Clients: :meth:`RunServer.listen` opens the submit/stream TCP API
(:mod:`repro.serve.client` speaks it) on the hub's own connection
design: codec frames, the frame-size guard, one batched write per
event-loop turn, and a *bounded* outbound queue (``stream_queue``).  A
client that stops reading (a stalled watcher) never blocks a session
-- round updates are fire-and-forget -- and at the bound the
connection is dropped with an error naming the laggard and the run it
was watching (``last_client_error``); so is one whose stream fails the
guard or does not decode.

Retention: the server forgets a run once its outcome is collected -- an
in-process :meth:`RunServer.result` call returned or raised, or a
client's ``result`` request was answered -- so a long-lived server's
memory follows its *in-flight* runs (``status()["retained"]``), not its
history.  Later ``result``/``watch`` requests for that id get the
``unknown run_id`` error.  A run submitted over a client connection is
also forgotten once nobody is left to ask: when its submitter and every
connection watching it have gone away, a finished run is dropped at
once and an unfinished one when its session ends.  Runs submitted
in-process (:meth:`RunServer.submit`) are only ever forgotten by
:meth:`RunServer.result`; ``retained`` counts whatever is still held.

The synchronous convenience :func:`run_many` boots a private server,
submits a batch, and returns the results in order.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
from dataclasses import replace
from functools import partial
from typing import Any, Optional, Sequence

from repro.api import PreparedRun, prepare_recipe
from repro.net.runtime import NetRuntimeError, Session, drive_session
from repro.net.codec import encode
from repro.net.transport import MemoryHub, TCPHub, _Connection, _wait_closed
from repro.serve import worker as worker_mod
from repro.sim.engine import RunResult

__all__ = ["RunServer", "run_many"]

#: Execution parameters a submission may carry -- the subset of the
#: ``run_*`` surface that is meaningful for a remote run (no traces,
#: no telemetry recorders, no backend choice: the server *is* the
#: backend).
EXECUTION_KEYS = frozenset(
    {"crashes", "seed", "scenario", "max_rounds", "fast_forward"}
)


class _Run:
    """Book-keeping for one submitted recipe."""

    __slots__ = (
        "run_id",
        "instance",
        "protocol",
        "done",
        "result",
        "error",
        "watchers",
        "rounds_seen",
        "holders",
    )

    def __init__(self, run_id: str, instance: int, protocol: dict):
        self.run_id = run_id
        self.instance = instance
        self.protocol = protocol
        self.done = asyncio.Event()
        self.result: Optional[RunResult] = None
        self.error: Optional[BaseException] = None
        #: deliver callables ``(message) -> None``; fire-and-forget, so
        #: a slow subscriber can never stall the session
        self.watchers: list[Any] = []
        self.rounds_seen = 0
        #: live client connections that submitted or watch this run;
        #: ``None`` for an in-process submission, which only
        #: :meth:`RunServer.result` forgets
        self.holders: Optional[set] = None


class RunServer:
    """A long-lived multi-instance protocol runner.

    Parameters
    ----------
    workers:
        Number of session-hosting worker OS processes.  ``0`` runs
        every session's host task in the server process on a
        :class:`~repro.net.transport.MemoryHub` (no hub socket at all);
        ``k > 0`` starts a :class:`~repro.net.transport.TCPHub` on an
        ephemeral loopback port for the workers to dial.  The hub kind
        follows from this number; ``status()["transport"]`` reports it.
    batching:
        Toggle frame batching on the worker connections, the only
        sockets session frames cross (on by default; the off position
        exists for benchmarks).  Client connections always batch.
    """

    #: Per-barrier-wait timeout for each session (``None`` disables):
    #: one watchdog timer per session, nothing per frame.  Under heavy
    #: multiplexing a healthy session's barrier can wait a while for
    #: loop time; raise this before suspecting a hang.
    session_timeout: Optional[float] = 120.0
    #: Bound of each client connection's outbound message queue (the
    #: slow-consumer guard: the connection's ``max_queue``).
    stream_queue = 256

    def __init__(self, *, workers: int = 0, batching: bool = True):
        self.workers = workers
        self.batching = batching
        self.hub: Any = None
        #: last dropped-client diagnostic (stalled stream, protocol
        #: error); names the peer and, for stalls, the run involved
        self.last_client_error: Optional[str] = None
        self._ctrl: Any = None
        self._worker_procs: list[Any] = []
        self._listener: Optional[asyncio.base_events.Server] = None
        self._clients: set[_ServedClient] = set()
        self._runs: dict[str, _Run] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._next_instance = 1  # instance 0 is the worker-control channel
        self._active = 0
        self._peak_concurrent = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "RunServer":
        """Start the hub (and workers, if any); returns ``self``."""
        if not self.workers:
            self.hub = MemoryHub()
            return self
        self.hub = TCPHub(batching=self.batching)
        await self.hub.start()
        self._ctrl = self.hub.endpoint(
            worker_mod.SERVER_ADDR, worker_mod.CONTROL_INSTANCE
        )
        ctx = multiprocessing.get_context("spawn")
        for index in range(self.workers):
            proc = ctx.Process(
                target=worker_mod.worker_main,
                args=(self.hub.host, self.hub.port, index, self.batching),
                daemon=True,
            )
            proc.start()
            self._worker_procs.append(proc)
        pending = set(range(self.workers))
        while pending:
            _src, msg = await asyncio.wait_for(self._ctrl.recv(), 30.0)
            if msg[0] == "ready":
                pending.discard(msg[1])
        return self

    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open the client submit/stream API; returns the bound port."""
        self._listener = await asyncio.get_running_loop().create_server(
            partial(_ServedClient, self), host, port
        )
        return self._listener.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, close the client connections, cancel
        in-flight sessions, stop workers/hub."""
        if self._listener is not None:
            # Clients first: from 3.12.1 on, the listener's wait_closed()
            # also waits for the connections it accepted.
            self._listener.close()
            clients = list(self._clients)
            for client in clients:
                client._transport.close()
            await _wait_closed(clients, TCPHub.drain_timeout)
            await self._listener.wait_closed()
        for task in list(self._tasks.values()):
            task.cancel()
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        if self._ctrl is None:
            return
        for index in range(self.workers):
            await self._ctrl.send(worker_mod.worker_addr(index), ("shutdown",))
        # The shutdown frames sit in the hub's per-connection queues;
        # closing the hub writes them out before it drops the sockets.
        await self.hub.close()
        for proc in self._worker_procs:
            await asyncio.to_thread(proc.join, 10)
            if proc.is_alive():
                proc.terminate()

    # -- submission and execution -----------------------------------------

    async def submit(
        self, protocol: dict, execution: Optional[dict] = None
    ) -> str:
        """Accept one recipe; returns its ``run_id`` immediately.

        ``protocol`` is a :func:`repro.api.run_recipe` recipe dict;
        ``execution`` the optional fault/bound parameters
        (:data:`EXECUTION_KEYS`).  Validation (unknown keys, recipe
        constraint violations) raises here, before a session exists.
        """
        return self._accept(protocol, execution).run_id

    def _accept(self, protocol: dict, execution: Optional[dict]) -> _Run:
        execution = dict(execution or {})
        unknown = set(execution) - EXECUTION_KEYS
        if unknown:
            raise ValueError(
                f"unknown execution keys {sorted(unknown)}; the server "
                f"accepts {sorted(EXECUTION_KEYS)}"
            )
        prepared = prepare_recipe(protocol, **execution)
        instance = self._next_instance
        self._next_instance += 1
        run_id = f"run-{instance:06d}"
        run = _Run(run_id, instance, dict(protocol))
        self._runs[run_id] = run
        self._submitted += 1
        self._active += 1
        self._peak_concurrent = max(self._peak_concurrent, self._active)
        task = asyncio.create_task(self._drive(run, prepared))
        self._tasks[run_id] = task
        task.add_done_callback(lambda _t: self._tasks.pop(run_id, None))
        return run

    async def result(self, run_id: str) -> RunResult:
        """Await a run's completion and return its result (raising the
        session's failure, if it failed).  Collecting the outcome is
        what lets the server forget the run: the id is unknown
        afterwards."""
        run = self._run(run_id)
        await run.done.wait()
        self._runs.pop(run_id, None)
        for conn in run.holders or ():
            conn.held.discard(run_id)
        if run.error is not None:
            raise run.error
        return run.result

    def watch(self, run_id: str, deliver: Any) -> None:
        """Subscribe ``deliver(message)`` to a run's progress stream.

        Messages are ``("update", run_id, info)`` per completed round
        and one final ``("done", run_id, info)``; a run already done
        delivers ``("done", ...)`` immediately.  ``deliver`` must not
        block -- it is called from the session's round loop.
        """
        run = self._run(run_id)
        if run.done.is_set():
            deliver(("done", run_id, self._final_info(run)))
            return
        run.watchers.append(deliver)

    def status(self) -> dict:
        """Server-level gauges."""
        return {
            "transport": "tcp" if self.workers else "memory",
            "workers": self.workers,
            "batching": self.batching,
            "active": self._active,
            "peak_concurrent": self._peak_concurrent,
            "submitted": self._submitted,
            "completed": self._completed,
            "failed": self._failed,
            "retained": len(self._runs),
        }

    def _run(self, run_id: str) -> _Run:
        run = self._runs.get(run_id)
        if run is None:
            raise KeyError(f"unknown run_id {run_id!r}")
        return run

    async def _drive(self, run: _Run, prepared: PreparedRun) -> None:
        session = Session(
            prepared.n,
            prepared.adversary,
            byzantine=prepared.byzantine,
            max_rounds=prepared.max_rounds,
            fast_forward=prepared.fast_forward,
            timeout=self.session_timeout,
            instance=run.instance,
        )
        session.on_round = lambda s, rnd: self._on_round(run, s, rnd)
        processes = prepared.processes
        del prepared  # the session holds what the run needs from here on
        try:
            if self.workers:
                await self._ctrl.send(
                    worker_mod.worker_addr(run.instance % self.workers),
                    (
                        "host",
                        run.instance,
                        run.protocol,
                        sorted(session.adversary.rejoin_pids()),
                    ),
                )
                processes = ()  # the worker builds its own
            run.result = await drive_session(session, self.hub, processes)
            self._completed += 1
        except asyncio.CancelledError:
            run.error = NetRuntimeError(f"{run.run_id} cancelled at shutdown")
            raise
        except Exception as exc:
            run.error = exc
            self._failed += 1
        finally:
            self._active -= 1
            # The hub's per-(instance, pid) routing state is garbage
            # once the session ends; a long-lived server must not
            # accumulate it across thousands of runs.
            self.hub.purge_instance(run.instance)
            run.done.set()
            self._publish(run, ("done", run.run_id, self._final_info(run)))
            run.watchers.clear()
            if run.holders is not None and not run.holders:
                # Submitted over a connection, and every connection
                # that could ask for it went away while it ran.
                self._runs.pop(run.run_id, None)

    def _on_round(self, run: _Run, session: Session, rnd: int) -> None:
        run.rounds_seen += 1
        if run.watchers:
            info = {
                "round": rnd,
                "messages": session.metrics.messages,
                "bits": session.metrics.bits,
                "crashed": len(session.crashed),
            }
            self._publish(run, ("update", run.run_id, info))

    def _final_info(self, run: _Run) -> dict:
        if run.error is not None:
            return {"ok": False, "error": str(run.error)}
        metrics = run.result.metrics
        return {
            "ok": True,
            "completed": run.result.completed,
            "rounds": metrics.rounds,
            "messages": metrics.messages,
            "bits": metrics.bits,
        }

    def _publish(self, run: _Run, message: tuple) -> None:
        for deliver in list(run.watchers):
            deliver(message)


class _ServedClient(_Connection):
    """One client connection, server side: each request is handled in
    the turn it arrives, and replies and stream messages leave through
    the bounded outbound queue (``max_queue`` is ``stream_queue``).

    :meth:`push` never blocks -- it is called from session round loops.
    Queue overflow means the client stopped reading: the connection is
    dropped with a diagnostic naming the laggard and the run whose
    message overflowed, and no session ever waits on it.
    """

    phase = "serve request"

    def __init__(self, server: RunServer):
        super().__init__("client", batching=True)
        self.server = server
        self.max_queue = server.stream_queue
        #: ids of the uncollected runs this connection submitted or
        #: watches (see the module's Retention paragraph)
        self.held: set[str] = set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.peer = f"client {transport.get_extra_info('peername')}"
        self.server._clients.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.server._clients.discard(self)

    def _dispatch(self, src: int, dst: int, instance: int, body: bytes) -> None:
        server = self.server
        msg = self._decode(body)
        kind = msg[0]
        if kind == "submit":
            _, token, protocol, execution = msg
            try:
                run = server._accept(protocol, execution)
            except Exception as exc:
                self.push(("error", token, f"{type(exc).__name__}: {exc}"))
                return
            run.holders = set()
            self.hold(run)
            self.push(("accepted", token, run.run_id))
        elif kind == "watch":
            _, run_id = msg
            try:
                server.watch(run_id, lambda m: self.push(m, run=run_id))
                self.hold(server._runs[run_id])
            except KeyError as exc:
                self.push(("error", run_id, exc.args[0]))
        elif kind == "result":
            _, run_id = msg
            # Awaiting here would head-of-line-block this client's later
            # requests behind a long run.
            asyncio.create_task(self._send_result(run_id))
        elif kind == "status":
            self.push(("status", server.status()))
        else:
            self.push(("error", None, f"unknown request {kind!r}"))

    async def _send_result(self, run_id: str) -> None:
        try:
            result = await self.server.result(run_id)
            # Live process objects (and attached trace/telemetry) stay
            # server-side: they can hold unpicklable state and are
            # meaningless across the wire.  Metrics, decisions, crash
            # sets and completion -- everything check_parity compares --
            # travel intact.
            self.push(("result", run_id, replace(result, processes=(), trace=None, telemetry=None)))
        except KeyError as exc:
            self.push(("error", run_id, exc.args[0]))
        except Exception as exc:
            self.push(("error", run_id, f"{type(exc).__name__}: {exc}"))

    def hold(self, run: _Run) -> None:
        if run.holders is not None:
            run.holders.add(self)
            self.held.add(run.run_id)

    def push(self, message: tuple, run: Optional[str] = None) -> None:
        if self._transport.is_closing():
            return
        try:
            body = encode(message)
        except Exception as exc:
            # An unserializable payload: tell the client which response
            # was dropped and keep the connection alive.
            ref = message[1] if len(message) > 1 else None
            body = encode((
                "error",
                ref,
                f"unserializable response {message[0]!r}: {type(exc).__name__}: {exc}",
            ))
        if not self._enqueue((0, 0, 0, body)):
            detail = f" while streaming {run}" if run else ""
            self._report(
                f"{self.peer} stalled{detail}: {self.max_queue} undelivered "
                "messages (slow consumer) -- dropping the connection so "
                "sessions keep advancing"
            )

    def _on_stream_end(self, error: Optional[Exception]) -> None:
        # EOF, a dropped connection, a frame-guard or decode failure:
        # release this connection's holds, say why if it failed, close.
        runs = self.server._runs
        for run_id in self.held:
            run = runs[run_id]
            run.holders.discard(self)
            if not run.holders and run.done.is_set():
                del runs[run_id]  # an unfinished one: _drive's finally
        self.held.clear()
        if error is not None:
            self._report(f"{self.peer}: {error}")
        self._transport.close()

    def _report(self, reason: str) -> None:
        self.server.last_client_error = reason
        print(f"RunServer: {reason}", file=sys.stderr)


def run_many(
    recipes: Sequence[dict | tuple[dict, dict]],
    *,
    workers: int = 0,
    batching: bool = True,
) -> list[RunResult]:
    """Run a batch of recipes concurrently through a private server.

    Each item is a recipe dict or a ``(recipe, execution)`` pair.  All
    sessions are submitted up front and advance concurrently over one
    shared hub -- in this process with ``workers=0``, sharded across
    ``workers`` spawned processes otherwise; results come back in
    submission order.  The convenience
    wrapper for tests, docs and scripts -- long-lived deployments use
    :class:`RunServer` directly.

    >>> from repro.serve import run_many
    >>> results = run_many([
    ...     {"name": "flooding", "inputs": [0, 1, 1, 0], "t": 1},
    ...     ({"name": "gossip", "rumors": list(range(12)), "t": 2},
    ...      {"crashes": None}),
    ... ])
    >>> [r.completed for r in results]
    [True, True]
    """

    async def _main() -> list[RunResult]:
        server = RunServer(workers=workers, batching=batching)
        await server.start()
        try:
            run_ids = []
            for item in recipes:
                if isinstance(item, tuple):
                    protocol, execution = item
                else:
                    protocol, execution = item, None
                run_ids.append(await server.submit(protocol, execution))
            return [await server.result(run_id) for run_id in run_ids]
        finally:
            await server.close()

    return asyncio.run(_main())
