"""The single-port discipline (the model of Section 8).

In the single-port model a node may, per round, *send* at most one
message to one chosen node and *receive* from at most one chosen port.
"A node does not obtain any signal from any of its ports that messages
have been delivered to the port and need to be received" -- so the
ports are the receiver's own buffers, and the model is a rule about
what one :class:`~repro.sim.process.Process` does inside the ordinary
round, not a round of its own.  :class:`SinglePortProcess` is that rule:
its :meth:`~SinglePortProcess.send` hands the engine the protocol's
at-most-one message, its :meth:`~SinglePortProcess.receive` files the
round's deliveries into per-sender FIFO ports and gives the protocol the
oldest message of the one port it polls.  A vector of them runs on
anything that runs processes -- both :class:`~repro.sim.engine.Engine`
loops, :func:`~repro.net.run_protocol_net`, under traces, telemetry and
every fault class:

>>> from repro.sim.engine import Engine
>>> class Hello(SinglePortProcess):
...     def emit(self, rnd):
...         return (1, "hi") if self.pid == 0 else None
...     def poll(self, rnd):
...         return 0 if self.pid == 1 else None
...     def absorb(self, rnd, message):
...         self.decide(message)
...         self.halt()
>>> result = Engine([Hello(0, 2), Hello(1, 2)]).run()
>>> result.decisions[1], result.rounds, result.messages
((0, 'hi'), 1, 1)

A message is pollable in the round it was sent: every engine runs all
sends before all receives ("all messages sent to a node in this round
get delivered"); Section 8's schedules never rely on it.  A round's
*activity* is a send, the engine's rule: a round in which nodes only
drain older messages counts as quiet, so a protocol whose polls are
schedule-driven declares them through ``next_activity``.

What waits unread in a port is not node state: it stays out of
``state_digest`` (Theorem 13 compares nodes that have unread messages
waiting), and a node rejoining after churn comes back with empty ports.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Optional

from repro.sim.process import Process, ProtocolError

__all__ = ["SinglePortProcess"]


class SinglePortProcess(Process):
    """Base class for single-port protocol participants: override
    :meth:`emit`, :meth:`poll` and :meth:`absorb`, not ``send`` /
    ``receive``."""

    def __init__(self, pid: int, n: int):
        super().__init__(pid, n)
        # sender pid -> FIFO of unread payloads; the ``_cache`` prefix
        # keeps it out of state_digest
        self._cache_ports: defaultdict[int, deque] = defaultdict(deque)

    # -- protocol hooks ------------------------------------------------

    def emit(self, rnd: int) -> Optional[tuple[int, Any]]:
        """Return ``(dst, payload)`` or ``None`` (at most one send)."""
        return None

    def poll(self, rnd: int) -> Optional[int]:
        """Return the pid whose port to check this round, or ``None``."""
        return None

    def absorb(self, rnd: int, message: Optional[tuple[int, Any]]) -> None:
        """Consume the polled ``(src, payload)`` (``None`` if nothing
        was polled or the port was empty)."""

    # -- the discipline --------------------------------------------------

    def send(self, rnd: int) -> tuple[tuple[int, Any], ...]:
        out = self.emit(rnd)
        return () if out is None else (out,)

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        ports = self._cache_ports
        for src, payload in inbox:
            ports[src].append(payload)
        port = self.poll(rnd)
        message = None
        if port is not None:
            if not 0 <= port < self.n:
                raise ProtocolError(
                    f"process {self.pid} polled invalid port {port}"
                )
            pending = ports.get(port)
            if pending:
                message = (port, pending.popleft())
        self.absorb(rnd, message)
