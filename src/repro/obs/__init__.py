"""Structured run telemetry: spans, phase timings, progress, exporters.

The repo's logical metrics (:class:`~repro.sim.metrics.Metrics`) answer
*how many* rounds, messages and bits an execution spent; this package
answers *where the wall-clock went*.  Every execution substrate --
:class:`~repro.sim.engine.Engine` (both round loops),
:class:`~repro.sim.vec.engine.VecEngine`, and the :mod:`repro.net`
:class:`~repro.net.runtime.Session` and host tasks -- emits the
same span taxonomy into a :class:`Recorder`, so one timeline format
covers all backends.

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
``telemetry=`` defaults to off everywhere.  The substrates normalise a
disabled recorder (``enabled`` false, e.g. :class:`NullRecorder`) to
``None`` once at run start and guard every instrumentation site with a
plain ``is not None`` test, so the disabled hot path performs no calls,
no clock reads and no allocations -- pinned by
``tests/test_obs.py::test_disabled_recorder_is_never_invoked`` and the
allocation test next to it.

Artifacts and surfaces
----------------------
A finished recorder seals into a :class:`RunTelemetry` artifact
(attached as ``result.telemetry`` by the :mod:`repro.api` entry
points) with three exporters: the telemetry JSON itself, a JSONL event
log, and a Chrome trace-event JSON loadable in Perfetto or
``chrome://tracing``.  ``python -m repro.obs summarize <events.jsonl>``
prints the flat per-phase table; ``repro-bench profile <series>``
profiles a whole sweep (one track per worker process) through the same
format.  :class:`~repro.obs.progress.ProgressReporter` renders live
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
    summarize_events,
    sweep_telemetry,
    validate_chrome_trace,
    validate_jsonl_lines,
    validate_telemetry_dict,
)
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    PhaseStats,
    Recorder,
    RunTelemetry,
    TelemetryRecorder,
    coerce_recorder,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "PhaseStats",
    "ProgressReporter",
    "Recorder",
    "RunTelemetry",
    "SCHEMA",
    "TelemetryRecorder",
    "chrome_trace",
    "coerce_recorder",
    "format_summary",
    "summarize_events",
    "sweep_telemetry",
    "validate_chrome_trace",
    "validate_jsonl_lines",
    "validate_telemetry_dict",
]
