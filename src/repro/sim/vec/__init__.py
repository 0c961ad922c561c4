"""Vectorized structure-of-arrays simulator backend (``backend="vec"``).

The paper's regular protocols spend their rounds doing the same thing at
every node -- flooding a minimum, probing a fixed overlay, pushing an
extant set -- which the object-per-process engine pays for in pure-Python
dispatch.  This package executes those *regular* families as numpy
structure-of-arrays kernels instead: membership, crash/rejoin and halt
state live in boolean arrays, per-link omission/partition masks become
boolean delivery matrices, and per-round message/bit tallies accumulate
in integer arrays (:class:`repro.sim.vec.engine.VecMetricsSink`).

Contract
--------
``vec_run`` produces a :class:`~repro.sim.engine.RunResult` *observably
identical* to the lock-step :class:`~repro.sim.engine.Engine` for the
same processes and fault schedule -- the full
:data:`repro.check.oracles.PARITY_FIELDS` surface: metrics summary,
per-node and per-round counters, decisions, crash set and completion.
This is pinned by ``tests/test_vec_parity.py`` (hypothesis scenarios x
kernel families) and certified continuously by ``repro.check``'s
backend rotation.

Kernels exist for the regular families (flooding consensus, gossip,
checkpointing).  Everything else -- other process types, Byzantine
executions, adaptive adversaries, and runs with a trace recorder or
checker attached -- falls back to the optimized engine, which is
observably identical by the engine parity tests, so ``backend="vec"``
is always safe to request:

* **record on vec, replay on sim-ref**: kernels have no per-group
  payloads to digest, so recording runs the optimized engine -- its
  ordinary loop, a recorder selects no other path there -- and the
  trace replays on any backend;
* **replay on vec**: a replay carries a :class:`~repro.trace.TraceChecker`
  and is bit-verified through the same fallback.

numpy is an optional extra: ``pip install -e .[vec]``.  Without it,
``vec_run`` raises immediately with an actionable error.  This module
only looks numpy up (:data:`HAVE_NUMPY`); the kernel modules import it
when a kernel is first built, so ``import repro.sim.vec`` -- and
``repro.check``, which imports it -- loads no numpy.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Any, Optional, Sequence

from repro.families import REGISTRY
from repro.scenarios import ScenarioAdversary
from repro.sim.adversary import CrashAdversary, NoFailures, ScheduledCrashes
from repro.sim.engine import Engine, RunResult
from repro.sim.process import Process

__all__ = ["HAVE_NUMPY", "KERNEL_FAMILIES", "has_kernel", "vec_run"]

#: Whether numpy is importable, found without importing it (a blocked
#: ``sys.modules["numpy"] = None`` reads False too).
HAVE_NUMPY = find_spec("numpy") is not None

#: Protocol families whose registry record carries a step kernel; other
#: families fall back to the optimized engine (see the module docstring).
KERNEL_FAMILIES = tuple(
    family.family for family in REGISTRY if family.kernel is not None
)


def has_kernel(family: str) -> bool:
    """Whether ``backend="vec"`` runs ``family`` on a kernel in this
    install: its record carries one and numpy is present."""
    return HAVE_NUMPY and family in KERNEL_FAMILIES

#: Adversary types known to be *oblivious* (the schedule never inspects
#: the live execution), which is what lets a kernel consume the schedule
#: without exposing a per-round process view.  Exact types, not
#: isinstance: a subclass may be adaptive.
_OBLIVIOUS_ADVERSARIES = (NoFailures, ScheduledCrashes, ScenarioAdversary)


def vec_run(
    processes: Sequence[Process],
    adversary: Optional[CrashAdversary],
    *,
    byzantine: frozenset[int] = frozenset(),
    max_rounds: int = 100_000,
    fast_forward: bool = True,
    optimized: bool = True,
    recorder: Optional[Any] = None,
    telemetry: Any = None,
) -> RunResult:
    """Execute on the vectorized backend (kernel or engine fallback).

    Raises ``RuntimeError`` when numpy is unavailable.  Dispatches to a
    structure-of-arrays kernel when the process vector is a homogeneous
    kernel family, the adversary is oblivious, there are no Byzantine
    nodes and no trace recorder/checker is attached; otherwise falls
    back to :class:`~repro.sim.engine.Engine` (same observable results;
    see the module docstring).  ``telemetry`` (see :mod:`repro.obs`)
    never forces the fallback -- :class:`~repro.sim.vec.engine.VecEngine`
    emits its own span taxonomy (``kernel.step`` instead of the engine's
    ``send``/``deliver`` split) -- so profiling a vec run measures the
    kernels, not the engine.
    """
    if not HAVE_NUMPY:
        raise RuntimeError(
            "backend='vec' requires numpy; install the optional extra: "
            "pip install -e .[vec]"
        )
    adv = adversary if adversary is not None else NoFailures()
    kernel = None
    if (
        recorder is None
        and not byzantine
        and type(adv) in _OBLIVIOUS_ADVERSARIES
    ):
        from repro.sim.vec.engine import build_kernel

        kernel = build_kernel(processes)
    if kernel is None:
        return Engine(
            processes,
            adv,
            byzantine=byzantine,
            max_rounds=max_rounds,
            fast_forward=fast_forward,
            optimized=optimized,
            recorder=recorder,
            telemetry=telemetry,
        ).run()
    from repro.sim.vec.engine import VecEngine

    return VecEngine(
        processes,
        adv,
        kernel,
        max_rounds=max_rounds,
        fast_forward=fast_forward,
        telemetry=telemetry,
    ).run()
