"""Telemetry exporters: JSONL event logs, Chrome trace-event JSON, flat
summary tables, and the sweep-report adapter.

Formats
-------
**JSONL** -- line 1 is a ``{"type": "meta", ...}`` header carrying the
schema, run metadata and the exact per-phase aggregates; every further
line is one event record (``{"type": "span"|"point", "name", "track",
"round", "ts", "dur"}``, timestamps in seconds since run start).  The
header and the event lines together are the whole artifact, so
:meth:`~repro.obs.recorder.RunTelemetry.load` reads a JSONL file back
into the same :class:`RunTelemetry` the telemetry JSON loads to.

**Chrome trace-event JSON** -- the ``{"traceEvents": [...]}`` format
Perfetto and ``chrome://tracing`` load.  Spans become complete (``X``)
events, points become instants (``i``), and each telemetry track (the
engine/coordinator, every net node, every sweep worker) becomes one
named thread via ``thread_name`` metadata events.  Timestamps are
microseconds since run start.  The format is write-only: it keeps the
timeline but not the exact phase aggregates.

**Sweep adapter** -- :func:`sweep_telemetry` converts a
:class:`~repro.bench.sweep.SweepReport` into the same
:class:`RunTelemetry` shape: one span per work unit on its worker's
track, per-experiment aggregates, and per-worker utilization in the
metadata.  That is what ``repro-bench profile <series>`` writes, so a
sweep profiles into Perfetto exactly like a single run does.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.recorder import SCHEMA, PhaseStats, RunTelemetry, _expect

__all__ = [
    "SCHEMA",
    "chrome_trace",
    "format_summary",
    "jsonl_lines",
    "summary_rows",
    "sweep_telemetry",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]


# -- JSONL --------------------------------------------------------------------


def jsonl_lines(telemetry: RunTelemetry) -> list[str]:
    """The event-log serialisation: meta header + one line per event."""
    header = {
        "type": "meta",
        "schema": telemetry.schema,
        "meta": telemetry.meta,
        "wall_seconds": telemetry.wall_seconds,
        "phases": telemetry.phases,
        "counts": telemetry.counts,
        "dropped_events": telemetry.dropped_events,
    }
    lines = [json.dumps(header, default=str)]
    lines.extend(json.dumps(event, default=str) for event in telemetry.events)
    return lines


def write_jsonl(telemetry: RunTelemetry, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in jsonl_lines(telemetry):
            handle.write(line)
            handle.write("\n")


# -- Chrome trace-event JSON --------------------------------------------------

#: Fixed process id for every track; Chrome renders one process group.
_CHROME_PID = 1


def _track_order(tracks: Iterable[str]) -> dict[str, int]:
    """Stable track -> tid assignment: run/engine/coordinator tracks
    first, then everything else in first-appearance order."""
    ordered: dict[str, int] = {}
    for track in tracks:
        if track not in ordered:
            ordered[track] = len(ordered)
    return ordered


def chrome_trace(telemetry: RunTelemetry) -> dict:
    """Convert to the Chrome trace-event format (Perfetto-loadable)."""
    tracks = _track_order(event.get("track", "run") for event in telemetry.events)
    if not tracks:
        tracks = {"run": 0}
    trace_events: list[dict] = []
    for track, tid in tracks.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _CHROME_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for event in telemetry.events:
        tid = tracks.get(event.get("track", "run"), 0)
        args = {"round": event.get("round")}
        args.update(event.get("args") or {})
        if event["type"] == "span":
            trace_events.append(
                {
                    "name": event["name"],
                    "ph": "X",
                    "ts": event["ts"] * 1e6,
                    "dur": event["dur"] * 1e6,
                    "pid": _CHROME_PID,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            trace_events.append(
                {
                    "name": event["name"],
                    "ph": "i",
                    "s": "t",
                    "ts": event["ts"] * 1e6,
                    "pid": _CHROME_PID,
                    "tid": tid,
                    "args": args,
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": telemetry.schema, **telemetry.meta},
    }


def write_chrome_trace(telemetry: RunTelemetry, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(telemetry), handle, default=str)
        handle.write("\n")


# -- flat summaries -----------------------------------------------------------


def summary_rows(telemetry: RunTelemetry) -> list[dict]:
    """Per-phase table rows (phase, count, totals, share of wall)."""
    wall = max(telemetry.wall_seconds, 1e-12)
    rows = []
    for name, stats in telemetry.phases.items():
        rows.append(
            {
                "phase": name,
                "count": stats["count"],
                "total_ms": round(stats["total_sec"] * 1e3, 3),
                "mean_us": round(
                    stats["total_sec"] / max(stats["count"], 1) * 1e6, 1
                ),
                "max_us": round(stats["max_sec"] * 1e6, 1),
                "share": f"{stats['total_sec'] / wall:.1%}",
            }
        )
    rows.sort(key=lambda row: -row["total_ms"])
    for name, count in telemetry.counts.items():
        rows.append({"phase": f"[{name}]", "count": count})
    return rows


def format_summary(rows: list[dict]) -> str:
    """Align row dicts into a printable text table.

    The columns are the union of all row keys, in first-appearance
    order, so heterogeneous rows render every field.  This is also
    :func:`repro.bench.runner.format_table`, which only words the empty
    table differently.
    """
    if not rows:
        return "(no phases recorded)"
    columns: dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key)
    names = list(columns)
    cells = [[str(row.get(col, "")) for col in names] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(names)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(names))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(row[i].ljust(widths[i]) for i in range(len(names)))
        for row in cells
    )
    return f"{header}\n{rule}\n{body}"


# -- sweep adapter ------------------------------------------------------------

_SCALARS = (str, int, float, bool)


def sweep_telemetry(report) -> RunTelemetry:
    """Convert a :class:`~repro.bench.sweep.SweepReport` into telemetry.

    One span per work unit on its worker process's track (``worker-<os
    pid>``), aggregates keyed by the experiment name, per-worker busy
    time and utilization in the metadata.  Workers stamp wall-clock
    start times (``time.time``), which are comparable across processes,
    so the spans place correctly on a shared timeline.
    """
    outcomes = list(report.outcomes)
    stats = PhaseStats()
    events: list[dict] = []
    workers: dict[int, dict] = {}
    t0 = min((o.started for o in outcomes if o.started), default=0.0)
    for outcome in outcomes:
        stats.add(outcome.elapsed)
        worker = workers.setdefault(
            outcome.worker, {"units": 0, "busy_seconds": 0.0}
        )
        worker["units"] += 1
        worker["busy_seconds"] += outcome.elapsed
        args = {
            key: value
            for key, value in outcome.unit.params.items()
            if isinstance(value, _SCALARS)
        }
        family = outcome.row.get("family") if isinstance(outcome.row, dict) else None
        if family:
            args.setdefault("family", family)
        events.append(
            {
                "type": "span",
                "name": report.name,
                "track": f"worker-{outcome.worker}",
                "round": outcome.unit.index,
                "ts": (outcome.started - t0) if outcome.started else 0.0,
                "dur": outcome.elapsed,
                "args": args,
            }
        )
    wall = max(report.elapsed, 1e-12)
    for worker in workers.values():
        worker["utilization"] = round(worker["busy_seconds"] / wall, 3)
        worker["busy_seconds"] = round(worker["busy_seconds"], 3)
    return RunTelemetry(
        meta={
            "backend": "sweep",
            "experiment": report.name,
            "units": len(outcomes),
            "jobs": report.jobs,
            "workers": {str(pid): info for pid, info in sorted(workers.items())},
        },
        wall_seconds=report.elapsed,
        phases={report.name: stats.to_dict()},
        events=events,
    )


# -- Chrome trace validator (tests + CI artifact checks) ----------------------


def validate_chrome_trace(data: dict) -> None:
    """Raise ``ValueError`` unless ``data`` is a loadable trace-event
    file; every nested value is type-checked, with the field named."""
    events = _expect(data, dict, "chrome trace").get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("chrome trace has no traceEvents list")
    named_threads = set()
    for event in events:
        ph = _expect(event, dict, "trace event").get("ph")
        if ph not in ("X", "i", "M"):
            raise ValueError(f"unexpected event phase {ph!r}")
        if ph == "M":
            if event.get("name") == "thread_name":
                named_threads.add(_expect(event.get("tid"), int, "tid of thread_name"))
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event!r}")
        what = f"trace event {event['name']!r}"
        _expect(event["tid"], int, f"tid of {what}")
        _expect(event["ts"], (int, float), f"ts of {what}")
        if ph == "X" and _expect(event.get("dur"), (int, float), f"dur of {what}") < 0:
            raise ValueError(f"complete event with negative dur: {event!r}")
    used = {e["tid"] for e in events if e["ph"] in ("X", "i")}
    if not used <= named_threads:
        raise ValueError(f"tracks {used - named_threads} lack thread_name metadata")
