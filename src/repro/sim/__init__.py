"""Synchronous message-passing simulator substrate (paper Section 2).

Public surface:

* :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Multicast`
  -- the multi-port protocol interface;
* :class:`~repro.sim.engine.Engine`, :class:`~repro.sim.engine.RunResult`
  -- the lock-step engine;
* :class:`~repro.sim.singleport.SinglePortProcess` -- the Section 8
  single-port discipline, a :class:`Process` the same engine runs;
* :mod:`~repro.sim.adversary` -- crash schedules and Byzantine bases;
* :class:`~repro.sim.metrics.Metrics` -- rounds/messages/bits accounting.
"""

from repro.sim.adversary import (
    ByzantineProcess,
    CrashAdversary,
    CrashSpec,
    NoFailures,
    ScheduledCrashes,
    crash_schedule,
)
from repro.sim.engine import Engine, RunResult
from repro.sim.metrics import Metrics
from repro.sim.process import Multicast, Process, ProtocolError, payload_bits
from repro.sim.singleport import SinglePortProcess

__all__ = [
    "ByzantineProcess",
    "CrashAdversary",
    "CrashSpec",
    "Engine",
    "Metrics",
    "Multicast",
    "NoFailures",
    "Process",
    "ProtocolError",
    "RunResult",
    "ScheduledCrashes",
    "SinglePortProcess",
    "crash_schedule",
    "payload_bits",
]
