"""``python -m repro.obs`` -- inspect and convert telemetry artifacts.

Subcommands:

``summarize <file>``
    Print the flat per-phase summary table for a JSONL event log or a
    telemetry JSON artifact (the table `repro-bench profile` prints,
    recomputed offline from the stored events).

``chrome <file> [-o out.trace.json]``
    Convert a telemetry JSON artifact or JSONL event log into Chrome
    trace-event JSON loadable in Perfetto / ``chrome://tracing``.

``validate <file> [file ...]``
    Schema-check telemetry artifacts (`.json`, `.jsonl`, `.trace.json`)
    -- the entry point the CI ``obs`` job runs over its uploads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.obs.export import (
    format_summary,
    summarize_events,
    summary_rows,
    validate_chrome_trace,
    validate_jsonl_lines,
    validate_telemetry_dict,
    write_chrome_trace,
)
from repro.obs.recorder import SCHEMA, RunTelemetry

__all__ = ["main"]


def _load(path: str) -> RunTelemetry:
    """Load a telemetry artifact from either serialisation."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".jsonl"):
        meta, _ = summarize_events(text.splitlines())
        return _jsonl_to_telemetry(text.splitlines(), meta)
    return RunTelemetry.from_dict(json.loads(text))


def _jsonl_to_telemetry(lines, meta_header: dict) -> RunTelemetry:
    events = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") in ("span", "point"):
            events.append(record)
    return RunTelemetry(
        meta=meta_header.get("meta", {}),
        wall_seconds=meta_header.get("wall_seconds", 0.0),
        phases=meta_header.get("phases", {}),
        counts=meta_header.get("counts", {}),
        events=events,
        dropped_events=meta_header.get("dropped_events", 0),
        schema=meta_header.get("schema", SCHEMA),
    )


def _cmd_summarize(path: str) -> int:
    if path.endswith(".jsonl"):
        with open(path, "r", encoding="utf-8") as handle:
            meta, rows = summarize_events(handle)
        header = meta.get("meta", {})
    else:
        telemetry = _load(path)
        rows = summary_rows(telemetry)
        header = telemetry.meta
    context = " ".join(
        f"{key}={header[key]}"
        for key in ("backend", "n", "rounds", "experiment", "units")
        if key in header
    )
    if context:
        print(context)
    print(format_summary(rows))
    return 0


def _cmd_chrome(path: str, out: Optional[str]) -> int:
    telemetry = _load(path)
    if out is None:
        base = path[: -len(".jsonl")] if path.endswith(".jsonl") else path.rsplit(".json", 1)[0]
        out = base + ".trace.json"
    write_chrome_trace(telemetry, out)
    print(f"wrote {out} ({len(telemetry.events)} events)")
    return 0


def _cmd_validate(paths: list[str]) -> int:
    status = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if path.endswith(".jsonl"):
                count = validate_jsonl_lines(text.splitlines())
                detail = f"{count} events"
            else:
                data = json.loads(text)
                if "traceEvents" in data:
                    validate_chrome_trace(data)
                    detail = f"{len(data['traceEvents'])} trace events"
                else:
                    validate_telemetry_dict(data)
                    detail = f"{len(data['phases'])} phases"
        except (OSError, ValueError, KeyError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"ok   {path}: {detail}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and convert repro telemetry artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summarize", help="print the per-phase summary table")
    p_sum.add_argument("file", help="events .jsonl or telemetry .json")
    p_chrome = sub.add_parser("chrome", help="convert to Chrome trace-event JSON")
    p_chrome.add_argument("file", help="events .jsonl or telemetry .json")
    p_chrome.add_argument("-o", "--out", default=None, help="output path")
    p_val = sub.add_parser("validate", help="schema-check telemetry artifacts")
    p_val.add_argument("files", nargs="+", help="artifacts to validate")
    args = parser.parse_args(argv)
    if args.command == "summarize":
        return _cmd_summarize(args.file)
    if args.command == "chrome":
        return _cmd_chrome(args.file, args.out)
    return _cmd_validate(args.files)
