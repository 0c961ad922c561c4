"""The recorder protocol, its null and collecting implementations, and
the :class:`RunTelemetry` artifact they seal into.

Design constraints (see the package docstring):

* the **null** implementation must cost nothing on the hot path -- the
  substrates normalise ``enabled``-false recorders to ``None`` via
  :func:`coerce_recorder` and guard every site with ``is not None``;
* the **collecting** implementation must stay cheap enough to profile
  multi-hour sweeps: per-phase wall-clock aggregates are always exact
  (O(1) memory per phase name), while the individual span/point events
  behind the timeline exporters are capped at ``max_events`` -- beyond
  the cap only the aggregates keep growing and ``dropped_events``
  records how many events the timeline lost.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "PhaseStats",
    "Recorder",
    "RunTelemetry",
    "TelemetryRecorder",
    "coerce_recorder",
]

#: Artifact schema tag; bumped on breaking layout changes.
SCHEMA = "repro-obs/1"


class Recorder:
    """Duck-typed surface every substrate instruments against.

    ``enabled`` is the single flag the substrates read: when false the
    recorder is dropped (normalised to ``None``) before the round loop
    starts, so none of the methods below is ever called on a disabled
    run.  ``clock`` is the timestamp source shared by caller and
    recorder -- substrates read ``tel.clock()`` around a phase and hand
    both endpoints to :meth:`span`, which keeps the recorder free to
    swap clocks (tests inject deterministic ones).
    """

    enabled: bool = False
    clock = staticmethod(time.perf_counter)

    def run_begin(self, *, backend: str = "", n: int = 0, **meta: Any) -> None:
        """Open the run span; ``backend``/``n``/``meta`` go to the artifact."""

    def run_end(self, **meta: Any) -> None:
        """Close the run span, merging final metadata (rounds, totals)."""

    def span(
        self,
        name: str,
        rnd: int,
        start: float,
        end: float,
        track: str = "run",
        **args: Any,
    ) -> None:
        """Record a completed ``[start, end]`` span on ``track``."""

    def point(self, name: str, rnd: int, ts: float, **args: Any) -> None:
        """Record an instantaneous event (crash / rejoin / drop / decide)
        on the ``run`` track."""

    def sample(self, name: str, duration: float, track: str = "run") -> None:
        """Aggregate a duration into the phase stats without storing an
        event -- the high-frequency form used by the codec probe."""

    def finish(self, result: Any = None) -> Optional["RunTelemetry"]:
        """Seal into an artifact (``None`` for the null recorder)."""
        return None


class NullRecorder(Recorder):
    """The do-nothing recorder; exists so callers can pass a recorder
    object unconditionally.  Substrates never actually invoke it: they
    drop ``enabled``-false recorders at run start (pinned by
    ``tests/test_obs.py``)."""

    __slots__ = ()


#: Shared no-op instance.
NULL_RECORDER = NullRecorder()


def coerce_recorder(telemetry: Any) -> Optional["TelemetryRecorder"]:
    """Normalise a ``telemetry=`` execution parameter to a live recorder
    or ``None``.

    Accepts ``None``/``False`` (off), ``True`` (fresh
    :class:`TelemetryRecorder`), a recorder instance (used as-is when
    ``enabled``, dropped otherwise), or a path (fresh recorder whose
    artifact the caller writes there -- path handling lives in
    :func:`repro.api._execute`).
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True or isinstance(telemetry, (str, os.PathLike)):
        return TelemetryRecorder()
    if not getattr(telemetry, "enabled", False):
        return None
    return telemetry


class PhaseStats:
    """Exact O(1)-memory aggregate of one phase's wall-clock samples."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_sec": self.total,
            "mean_sec": self.total / self.count if self.count else 0.0,
            "min_sec": self.min if self.count else 0.0,
            "max_sec": self.max,
        }


class TelemetryRecorder(Recorder):
    """The collecting recorder behind ``telemetry=True``.

    Not thread-safe by design: one recorder instruments one execution
    (the asyncio substrates run all tasks on one loop).  Timestamps are
    ``time.perf_counter`` values; the artifact normalises them relative
    to ``run_begin`` so events are comparable across artifacts.
    """

    enabled = True

    def __init__(self, *, max_events: int = 200_000) -> None:
        self.max_events = max_events
        self.meta: dict = {}
        self.stats: dict[str, PhaseStats] = {}
        self.counts: dict[str, int] = {}
        #: raw events: ("span", name, track, rnd, start, end, args) or
        #: ("point", name, track, rnd, ts, args)
        self.events: list[tuple] = []
        self.dropped_events = 0
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None

    # -- recording sites --------------------------------------------------

    def run_begin(self, *, backend: str = "", n: int = 0, **meta: Any) -> None:
        # Idempotent on re-begin (the api layer may label the backend
        # before the substrate opens the run): the first clock wins so
        # every event stays inside the run span.
        if self._t0 is None:
            self._t0 = self.clock()
        if backend:
            self.meta["backend"] = backend
        if n:
            self.meta["n"] = n
        self.meta.update(meta)

    def run_end(self, **meta: Any) -> None:
        self._t1 = self.clock()
        self.meta.update(meta)

    def span(
        self,
        name: str,
        rnd: int,
        start: float,
        end: float,
        track: str = "run",
        **args: Any,
    ) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = PhaseStats()
        stats.add(end - start)
        if len(self.events) < self.max_events:
            self.events.append(
                ("span", name, track, rnd, start, end, args or None)
            )
        else:
            self.dropped_events += 1

    def point(self, name: str, rnd: int, ts: float, **args: Any) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if len(self.events) < self.max_events:
            self.events.append(("point", name, "run", rnd, ts, args or None))
        else:
            self.dropped_events += 1

    def sample(self, name: str, duration: float, track: str = "run") -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = PhaseStats()
        stats.add(duration)

    # -- sealing ----------------------------------------------------------

    def finish(self, result: Any = None) -> "RunTelemetry":
        """Seal into a :class:`RunTelemetry`, normalising timestamps to
        seconds since ``run_begin``.  ``result`` (a
        :class:`~repro.sim.engine.RunResult`) contributes the logical
        headline counters so one artifact carries both stories."""
        if self._t0 is None:
            self._t0 = self.clock()
        if self._t1 is None:
            self._t1 = self.clock()
        t0 = self._t0
        meta = dict(self.meta)
        if result is not None:
            meta.setdefault("rounds", result.metrics.rounds)
            meta.setdefault("messages", result.metrics.messages)
            meta.setdefault("bits", result.metrics.bits)
            meta.setdefault("completed", result.completed)
            meta.setdefault("crashed", sorted(result.crashed))
        events = []
        for event in self.events:
            if event[0] == "span":
                _, name, track, rnd, start, end, args = event
                record = {
                    "type": "span",
                    "name": name,
                    "track": track,
                    "round": rnd,
                    "ts": start - t0,
                    "dur": end - start,
                }
            else:
                _, name, track, rnd, ts, args = event
                record = {
                    "type": "point",
                    "name": name,
                    "track": track,
                    "round": rnd,
                    "ts": ts - t0,
                }
            if args:
                record["args"] = args
            events.append(record)
        return RunTelemetry(
            meta=meta,
            wall_seconds=self._t1 - t0,
            phases={name: s.to_dict() for name, s in sorted(self.stats.items())},
            counts=dict(sorted(self.counts.items())),
            events=events,
            dropped_events=self.dropped_events,
        )


@dataclass
class RunTelemetry:
    """One execution's sealed telemetry: metadata, per-phase wall-clock
    aggregates, point-event counts, and the (possibly capped) event
    timeline.  Saved next to traces; see :mod:`repro.obs.export` for
    the JSONL / Chrome trace-event serialisations."""

    meta: dict
    wall_seconds: float
    phases: dict[str, dict]
    counts: dict[str, int] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    dropped_events: int = 0
    schema: str = SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "meta": dict(self.meta),
            "wall_seconds": self.wall_seconds,
            "phases": {name: dict(stats) for name, stats in self.phases.items()},
            "counts": dict(self.counts),
            "dropped_events": self.dropped_events,
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunTelemetry":
        return cls(
            meta=dict(data["meta"]),
            wall_seconds=data["wall_seconds"],
            phases={k: dict(v) for k, v in data["phases"].items()},
            counts=dict(data.get("counts", {})),
            events=list(data.get("events", [])),
            dropped_events=data.get("dropped_events", 0),
            schema=data.get("schema", SCHEMA),
        )

    def save(self, path) -> None:
        """Write the telemetry JSON artifact."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "RunTelemetry":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # -- exporter conveniences (implemented in repro.obs.export) ----------

    def jsonl_lines(self) -> list[str]:
        from repro.obs.export import jsonl_lines

        return jsonl_lines(self)

    def write_jsonl(self, path) -> None:
        from repro.obs.export import write_jsonl

        write_jsonl(self, path)

    def chrome_trace(self) -> dict:
        from repro.obs.export import chrome_trace

        return chrome_trace(self)

    def write_chrome_trace(self, path) -> None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self, path)

    def summary_rows(self) -> list[dict]:
        from repro.obs.export import summary_rows

        return summary_rows(self)

    def write(self, path) -> None:
        """Suffix-dispatching writer behind ``telemetry="<path>"``:
        ``*.jsonl`` writes the event log, ``*.trace.json`` /
        ``*.chrome.json`` the Chrome trace-event file, anything else
        the telemetry JSON artifact itself."""
        name = os.fspath(path)
        if name.endswith(".jsonl"):
            self.write_jsonl(path)
        elif name.endswith((".trace.json", ".chrome.json")):
            self.write_chrome_trace(path)
        else:
            self.save(path)
