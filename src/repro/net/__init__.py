"""``repro.net`` -- asyncio message-passing runtime for the paper's protocols.

The simulator in :mod:`repro.sim.engine` executes protocols inside one
lock-step loop.  This package runs the *same* :class:`~repro.sim.process.Process`
objects behind asyncio host tasks -- one per OS process, each holding a
shard of the processes -- exchanging real messages over pluggable
transports:

* an **in-memory hub** (:class:`~repro.net.transport.MemoryHub`) for
  tests and single-machine experiments, and
* a **TCP hub** (:class:`~repro.net.transport.TCPHub`) for real
  socket-level runs, including multi-OS-process deployments where worker
  processes host disjoint shards of the process set.

A coordinator task (:class:`~repro.net.runtime.Session`) implements
the paper's synchronous model as a barrier per round: every message sent
in round ``r`` is delivered before any process observes round ``r``'s
receive phase, faults are injected from the same
:class:`~repro.sim.adversary.CrashAdversary` schedules the simulator
uses -- crashes with partial sends, and the extended
:mod:`repro.scenarios` classes (per-link omission, partitions, churn
with rejoin) -- and the run produces the same
:class:`~repro.sim.metrics.Metrics` (including ``dropped_messages``):
the parity tests pin identical decisions, crash sets and
message/bit/drop totals against :class:`~repro.sim.engine.Engine` for
the same schedule.  :mod:`repro.trace` recorders/checkers attach to the
coordinator for record/replay across substrates.

Every layer is *session-multiplexed*: frames carry an instance tag
(:mod:`repro.net.codec`), the hubs route by ``(instance, address)``
and one TCP connection (:class:`~repro.net.transport.TCPMux`) can host
any number of per-instance endpoints, so many protocol instances share
one transport -- the substrate of the :mod:`repro.serve` run-server.
Single runs use instance ``0`` throughout and are unaffected.

Entry points: :func:`~repro.net.runtime.run_protocol_net` executes a
process list end-to-end in one OS process over either transport;
:func:`~repro.net.runtime.drive_session` runs a
:class:`~repro.net.runtime.Session` on a hub, hosting a shard itself or
none, and with :func:`~repro.net.runtime.host_nodes_tcp` splits the
coordinator and the shards across OS processes (see
``examples/net_consensus.py``).  The high-level ``repro.api.run_*``
helpers accept ``backend="net"`` / ``backend="tcp"`` and route here.
"""

from repro.net.codec import MAX_FRAME_BYTES, FrameTooLargeError
from repro.net.faults import RuntimeView
from repro.net.runtime import (
    NetRuntimeError,
    Session,
    drive_session,
    host_nodes_tcp,
    run_nodes,
    run_protocol_net,
)
from repro.net.transport import (
    MemoryHub,
    SlowConsumerError,
    TCPHub,
    TCPMux,
    connect_tcp,
    open_mux,
)

__all__ = [
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "MemoryHub",
    "NetRuntimeError",
    "RuntimeView",
    "Session",
    "SlowConsumerError",
    "TCPHub",
    "TCPMux",
    "connect_tcp",
    "drive_session",
    "host_nodes_tcp",
    "open_mux",
    "run_nodes",
    "run_protocol_net",
]
