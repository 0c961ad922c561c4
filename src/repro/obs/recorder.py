"""The collecting recorder and the :class:`RunTelemetry` artifact it
seals into.

Design constraints (see the package docstring):

* telemetry **off** must cost nothing on the hot path -- the substrates
  normalise ``telemetry=`` via :func:`coerce_recorder` once, to a
  :class:`TelemetryRecorder` or ``None``, and guard every site with
  ``is not None``;
* the recorder must stay cheap enough to profile multi-hour sweeps:
  per-phase wall-clock aggregates are always exact (O(1) memory per
  phase name), while the individual span/point events behind the
  timeline exporters are capped at ``max_events`` -- beyond the cap
  only the aggregates keep growing and ``dropped_events`` records how
  many events the timeline lost.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "PhaseStats",
    "RunTelemetry",
    "TelemetryRecorder",
    "coerce_recorder",
    "validate_telemetry_dict",
]

#: Artifact schema tag; bumped on breaking layout changes.
SCHEMA = "repro-obs/1"

#: Suffixes of the Chrome trace-event serialisation, which
#: :meth:`RunTelemetry.write` writes and :meth:`RunTelemetry.load`
#: refuses: it keeps the timeline but not the phase aggregates.
CHROME_SUFFIXES = (".trace.json", ".chrome.json")


def coerce_recorder(telemetry: Any) -> Optional["TelemetryRecorder"]:
    """Normalise a ``telemetry=`` execution parameter to a live recorder
    or ``None``.

    Accepts ``None``/``False`` (off), ``True`` (fresh
    :class:`TelemetryRecorder`), a :class:`TelemetryRecorder` (used
    as-is), or a path (fresh recorder whose artifact the caller writes
    there -- path handling lives in :func:`repro.api._execute`).
    Anything else raises ``TypeError``.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True or isinstance(telemetry, (str, os.PathLike)):
        return TelemetryRecorder()
    if isinstance(telemetry, TelemetryRecorder):
        return telemetry
    raise TypeError(
        "telemetry= takes None, False, True, a path or a TelemetryRecorder, "
        f"not {type(telemetry).__name__}"
    )


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


class TelemetryRecorder:
    """The recorder behind ``telemetry=True``, and the surface every
    substrate instruments against.

    ``clock`` is the timestamp source shared by caller and recorder --
    substrates read ``tel.clock()`` around a phase and hand both
    endpoints to :meth:`span`, which keeps the recorder free to swap
    clocks (tests inject deterministic ones).  Not thread-safe by
    design: one recorder instruments one execution (the asyncio
    substrates run all tasks on one loop).  The artifact normalises
    timestamps relative to ``run_begin`` so events are comparable
    across artifacts.
    """

    clock = staticmethod(time.perf_counter)

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
        """Open the run span; ``backend``/``n``/``meta`` go to the artifact."""
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
        """Close the run span, merging final metadata (rounds, totals)."""
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
        """Record a completed ``[start, end]`` span on ``track``."""
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
        """Record an instantaneous event (crash / rejoin / drop / decide)
        on the ``run`` track."""
        self.counts[name] = self.counts.get(name, 0) + 1
        if len(self.events) < self.max_events:
            self.events.append(("point", name, "run", rnd, ts, args or None))
        else:
            self.dropped_events += 1

    def sample(self, name: str, duration: float, track: str = "run") -> None:
        """Aggregate a duration into the phase stats without storing an
        event -- the high-frequency form used by the codec probe."""
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

    @classmethod
    def load(cls, path) -> "RunTelemetry":
        """Read back what :meth:`write` wrote, dispatching on the same
        suffixes: ``*.jsonl`` is the event log (a meta header line, then
        one line per event), anything else the telemetry JSON.  Both
        serialisations hold the whole artifact, so both load to the
        same ``RunTelemetry``.  A Chrome trace-event file is refused:
        that format is write-only."""
        name = os.fspath(path)
        if name.endswith(CHROME_SUFFIXES):
            raise ValueError(
                f"{name}: a Chrome trace-event file is write-only; load the "
                "run's telemetry .json or .jsonl event log instead"
            )
        with open(path, "r", encoding="utf-8") as handle:
            if not name.endswith(".jsonl"):
                data = json.load(handle)
            else:
                records = [json.loads(line) for line in handle if line.strip()]
                header = records[0] if records else None
                if not isinstance(header, dict) or header.get("type") != "meta":
                    raise ValueError("event log has no meta header line")
                data = {**header, "events": records[1:]}
        validate_telemetry_dict(data)
        return cls.from_dict(data)

    def write(self, path) -> None:
        """Suffix-dispatching writer behind ``telemetry="<path>"``:
        ``*.jsonl`` writes the event log, ``*.trace.json`` /
        ``*.chrome.json`` the Chrome trace-event file, anything else
        the telemetry JSON artifact itself."""
        from repro.obs.export import write_chrome_trace, write_jsonl

        name = os.fspath(path)
        if name.endswith(".jsonl"):
            write_jsonl(self, path)
        elif name.endswith(CHROME_SUFFIXES):
            write_chrome_trace(self, path)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2, default=str)
                handle.write("\n")


#: What :func:`_expect` calls each kind of JSON value in its errors.
_KINDS = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    (int, float): "a number",
}


def _expect(value: Any, kind: Any, what: str) -> Any:
    """``value``, or a ``ValueError`` naming ``what`` unless it is a
    ``kind`` (a key of :data:`_KINDS`)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} is a {type(value).__name__}, not {_KINDS[kind]}")
    return value


def validate_telemetry_dict(data: dict) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid telemetry artifact
    -- the dict :meth:`RunTelemetry.to_dict` makes and
    :meth:`RunTelemetry.load` reads from either serialisation.  Every
    nested value is type-checked, so a malformed file fails here, with
    the field named, and not later in a reader."""
    _expect(data, dict, "telemetry artifact")
    if not str(data.get("schema", "")).startswith("repro-obs"):
        raise ValueError(f"bad schema tag {data.get('schema')!r}")
    for key in ("meta", "wall_seconds", "phases", "events"):
        if key not in data:
            raise ValueError(f"telemetry artifact missing {key!r}")
    _expect(data["meta"], dict, "meta")
    _expect(data["wall_seconds"], (int, float), "wall_seconds")
    _expect(data.get("dropped_events", 0), int, "dropped_events")
    for name, count in _expect(data.get("counts", {}), dict, "counts").items():
        _expect(count, int, f"count {name!r}")
    for name, stats in _expect(data["phases"], dict, "phases").items():
        _expect(stats, dict, f"phase {name!r}")
        for key in ("count", "total_sec", "mean_sec", "min_sec", "max_sec"):
            if key not in stats:
                raise ValueError(f"phase {name!r} missing {key!r}")
            _expect(stats[key], (int, float), f"phase {name!r} {key}")
        if stats["count"] <= 0:
            raise ValueError(f"phase {name!r} has no samples")
    for event in _expect(data["events"], list, "events"):
        if not isinstance(event, dict) or event.get("type") not in ("span", "point"):
            raise ValueError(f"bad event type in {event!r}")
        if "name" not in event or "ts" not in event:
            raise ValueError(f"event missing name/ts: {event!r}")
        what = f"{event['type']} {event['name']!r}"
        _expect(event["name"], str, f"name of {what}")
        _expect(event["ts"], (int, float), f"ts of {what}")
        _expect(event.get("track", ""), str, f"track of {what}")
        _expect(event.get("args", {}), dict, f"args of {what}")
        if event["type"] == "span":
            if _expect(event.get("dur"), (int, float), f"dur of {what}") < 0.0:
                raise ValueError(f"span with negative duration: {event!r}")
