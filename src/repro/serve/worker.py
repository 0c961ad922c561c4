"""Run-server worker process: hosts the processes of assigned sessions.

A worker is one OS process holding one multiplexed hub connection
(:class:`~repro.net.transport.TCPMux`).  The server assigns it whole
sessions over a control channel (instance ``0`` is reserved for
control traffic; run instances start at ``1``): a ``("host", instance,
protocol, churn_pids)`` command makes the worker rebuild the recipe's
process vector with :func:`repro.api.build_recipe_processes` -- which
is deterministic, so the worker's processes are identical to what the
server (or the submitting client) would build -- and run them as one
:func:`~repro.net.runtime.run_nodes` host task on the session's
``(instance, 0)`` virtual endpoint of the shared connection.

Control addresses on instance ``0``: the server listens at address
``0``; worker ``w`` listens at address ``w + 1``.
"""

from __future__ import annotations

import asyncio
import sys

from repro.api import build_recipe_processes
from repro.net.runtime import run_nodes
from repro.net.transport import open_mux

__all__ = ["worker_main"]

#: instance reserved for server<->worker control traffic
CONTROL_INSTANCE = 0
#: control address the server listens on
SERVER_ADDR = 0


def worker_addr(index: int) -> int:
    """Control address of worker ``index`` on the control instance."""
    return index + 1


async def _worker(host: str, port: int, index: int, batching: bool) -> None:
    mux = await open_mux(host, port, batching=batching)
    ctrl = mux.endpoint(worker_addr(index), CONTROL_INSTANCE)
    hosted: set[asyncio.Task] = set()
    try:
        await ctrl.send(SERVER_ADDR, ("ready", index))
        while True:
            _src, msg = await ctrl.recv()
            kind = msg[0]
            if kind == "host":
                _, instance, protocol, churn_pids = msg
                processes, _horizon, _byz = build_recipe_processes(protocol)
                task = asyncio.create_task(
                    run_nodes(
                        processes,
                        mux.endpoint(0, instance),
                        len(processes),
                        churn_pids=churn_pids,
                    )
                )
                hosted.add(task)
                task.add_done_callback(hosted.discard)
            elif kind == "shutdown":
                return
            else:
                raise RuntimeError(
                    f"worker {index} received unknown control message {kind!r}"
                )
    finally:
        if hosted:
            # Sessions still in flight when the server shuts down are
            # abandoned; their coordinator is going away too.
            for task in hosted:
                task.cancel()
            await asyncio.gather(*hosted, return_exceptions=True)
        await mux.close()


def worker_main(host: str, port: int, index: int, batching: bool = True) -> None:
    """Entry point for a spawned worker process."""
    try:
        asyncio.run(_worker(host, port, index, batching))
    except (ConnectionError, asyncio.IncompleteReadError):
        # Hub went away (server shutdown race); nothing to clean up.
        pass
    except KeyboardInterrupt:
        pass
    except Exception as exc:  # surface in the parent's captured stderr
        print(f"serve worker {index} died: {exc!r}", file=sys.stderr)
        raise
