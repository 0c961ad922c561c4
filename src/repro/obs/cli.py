"""``python -m repro.obs`` -- inspect and convert telemetry artifacts.

Every subcommand reads an artifact through
:meth:`~repro.obs.recorder.RunTelemetry.load`, so the telemetry JSON and
the JSONL event log of one run give the same answers.

Subcommands:

``summarize <file>``
    Print the flat per-phase summary table (the table `repro-bench
    profile` prints) of a telemetry JSON artifact or JSONL event log.

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
    summary_rows,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.recorder import CHROME_SUFFIXES, RunTelemetry

__all__ = ["main"]


def _cmd_summarize(path: str) -> int:
    telemetry = RunTelemetry.load(path)
    header = telemetry.meta
    context = " ".join(
        f"{key}={header[key]}"
        for key in ("backend", "n", "rounds", "experiment", "units")
        if key in header
    )
    if context:
        print(context)
    print(format_summary(summary_rows(telemetry)))
    return 0


def _cmd_chrome(path: str, out: Optional[str]) -> int:
    telemetry = RunTelemetry.load(path)
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
            if path.endswith(CHROME_SUFFIXES):
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                validate_chrome_trace(data)
                detail = f"{len(data['traceEvents'])} trace events"
            else:
                telemetry = RunTelemetry.load(path)
                detail = f"{len(telemetry.phases)} phases, {len(telemetry.events)} events"
        except (OSError, ValueError) as exc:
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
    p_sum.add_argument("file", help="telemetry .json or events .jsonl")
    p_chrome = sub.add_parser("chrome", help="convert to Chrome trace-event JSON")
    p_chrome.add_argument("file", help="telemetry .json or events .jsonl")
    p_chrome.add_argument("-o", "--out", default=None, help="output path")
    p_val = sub.add_parser("validate", help="schema-check telemetry artifacts")
    p_val.add_argument("files", nargs="+", help="artifacts to validate")
    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args.files)
    try:
        if args.command == "summarize":
            return _cmd_summarize(args.file)
        return _cmd_chrome(args.file, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
