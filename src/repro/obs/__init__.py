"""Structured run telemetry: spans, phase timings, progress, exporters.

The repo's logical metrics (:class:`~repro.sim.metrics.Metrics`) answer
*how many* rounds, messages and bits an execution spent; this package
answers *where the wall-clock went*.  Every execution substrate --
:class:`~repro.sim.engine.Engine` (both round loops),
:class:`~repro.sim.vec.engine.VecEngine`, and the :mod:`repro.net`
:class:`~repro.net.runtime.Session` and host tasks -- emits the
same span taxonomy into a :class:`TelemetryRecorder`, so one timeline
format covers all backends.

Span taxonomy
-------------
``run -> round -> phase`` spans plus point events:

==============  ============================================================
span            meaning
==============  ============================================================
``round``       one executed round (fast-forward skips emit no span)
``rejoin``      churn rejoin phase (emitted only when a node rejoins)
``crash``       adversary crash nomination + link-mask computation
``send``        send phase; on the net runtime this includes the barrier
                wait up to the last host's ``SENT`` report
``deliver``     receive phase; on the net runtime the rest of the
                barrier wait, up to the last ``DONE`` report
``kernel.step`` one vectorized round body (``backend="vec"`` kernels)
``node.send``   one net host's send phase (its shard's ``send`` and
                the routing), on the host's ``host-<address>`` track
``node.deliver``one net host's receive phase (its shard's ``deliver``),
                on the same track
``codec.encode``/``codec.decode``  aggregated frame codec cost (stats
                only, no per-frame events)
==============  ============================================================

Point events: ``crash`` (pid, keep budget), ``rejoin`` (pid), ``drop``
(src, count) and ``decide`` (pid) -- the moments a timeline viewer
wants markers for.

Zero overhead when disabled
---------------------------
``telemetry=`` defaults to off everywhere.  :func:`coerce_recorder`
turns the parameter into a :class:`TelemetryRecorder` or ``None`` once
at run start, and every instrumentation site is guarded by a plain
``is not None`` test, so a run without telemetry performs no obs calls,
no clock reads and no obs allocations -- pinned by
``tests/test_obs.py::test_disabled_path_allocates_nothing_from_obs``
and ``tests/test_round_control.py``'s
``test_without_telemetry_no_clock_is_read``.

Artifacts and surfaces
----------------------
A finished recorder seals into a :class:`RunTelemetry` artifact
(attached as ``result.telemetry`` by the :mod:`repro.api` entry
points) that :meth:`RunTelemetry.write` serialises by suffix: the
telemetry JSON itself, a JSONL event log, or a write-only Chrome
trace-event JSON loadable in Perfetto or ``chrome://tracing``.
:meth:`RunTelemetry.load` reads either of the first two back to the
same artifact, and ``python -m repro.obs summarize <file>`` prints its
flat per-phase table; ``repro-bench profile <series>`` profiles a
whole sweep (one track per worker process) through the same format.
:class:`~repro.obs.progress.ProgressReporter` renders live
heartbeats (units/sec, ETA, per-worker utilization) for the
long-running ``repro.check`` and ``repro-bench`` surfaces.

>>> from repro import run_flooding
>>> result = run_flooding([0, 1] * 10, t=2, crashes=None, telemetry=True)
>>> sorted(result.telemetry.phases) == ['crash', 'deliver', 'round', 'send']
True
>>> result.telemetry.meta['rounds']
3
"""

from __future__ import annotations

from repro.obs.export import (
    SCHEMA,
    chrome_trace,
    format_summary,
    sweep_telemetry,
    validate_chrome_trace,
)
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import (
    PhaseStats,
    RunTelemetry,
    TelemetryRecorder,
    coerce_recorder,
    validate_telemetry_dict,
)

__all__ = [
    "PhaseStats",
    "ProgressReporter",
    "RunTelemetry",
    "SCHEMA",
    "TelemetryRecorder",
    "chrome_trace",
    "coerce_recorder",
    "format_summary",
    "sweep_telemetry",
    "validate_chrome_trace",
    "validate_telemetry_dict",
]
