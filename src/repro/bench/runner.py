"""Command-line experiment runner: regenerates the paper-shaped tables.

Usage::

    python -m repro.bench.runner table1
    python -m repro.bench.runner e5 e9 --jobs 4
    python -m repro.bench.runner all --jobs 8 --out results/
    repro-bench profile smoke --jobs 4 --out obs/   # instrumented run

Each experiment id maps to a declarative sweep spec in
:mod:`repro.bench.series`; the scheduler in :mod:`repro.bench.sweep`
expands it into work units and fans them out over ``--jobs`` worker
processes.  Row content and order are independent of the worker count
(every unit is deterministically parameterised and results are
collected in unit order), so ``--jobs`` only changes wall-clock time.

The output is an aligned text table (README, "Benchmarks and sweeps",
says how to read one); ``--out DIR`` additionally writes one JSON report
(parameters, rows, timings) and one CSV (rows only) per experiment for
machine-readable trajectory tracking.

``repro-bench profile <experiment>`` runs one experiment with live
progress heartbeats and prints its wall-clock profile (per-phase table,
per-worker utilization) instead of the result rows; ``--out DIR``
writes the telemetry artifacts -- ``<experiment>.events.jsonl`` and a
Perfetto-loadable ``<experiment>.trace.json`` with one track per worker
process (see :mod:`repro.obs`).

Every table printed here is a *model* cost (rounds, messages, bits):
deterministic and pinned by tier-1 tests.  Wall-clock is measured in
one place only, the perf ladder ``benchmarks/perf/run.py`` declared by
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench import series
from repro.bench.sweep import run_sweep, write_csv, write_json
from repro.obs.export import format_summary

__all__ = [
    "EXPERIMENTS",
    "cli_main",
    "format_table",
    "main",
    "profile_main",
]

#: Experiment id -> (zero-argument spec builder, display title): the
#: registry behind the CLI; the builders take the series' parameters
#: when called from a library.
EXPERIMENTS = {
    "table1": (series.table1_spec, "Table 1: linear time + communication ranges"),
    "e5": (series.aea_spec, "Theorem 5: Almost-Everywhere-Agreement"),
    "e6": (series.scv_spec, "Theorem 6: Spread-Common-Value"),
    "e7": (series.consensus_few_spec, "Theorem 7: Few-Crashes-Consensus"),
    "e8": (series.consensus_many_spec, "Theorem 8/Cor 1: Many-Crashes-Consensus"),
    "e9": (series.gossip_spec, "Theorem 9: Gossip"),
    "e10": (series.checkpointing_spec, "Theorem 10: Checkpointing"),
    "e11": (series.byzantine_spec, "Theorem 11: AB-Consensus"),
    "e12": (series.singleport_spec, "Theorem 12: single-port Linear-Consensus"),
    "e13": (series.lowerbounds_spec, "Theorem 13: lower bounds"),
    "baselines": (series.baselines_spec, "Cross-comparison vs classical baselines"),
    "families": (
        series.families_spec,
        "Literature families (approximate, lv-consensus) vs the paper's: rounds/bits",
    ),
    "net": (series.net_spec, "Simulator vs. asyncio net runtime (parity + cost)"),
    "scenarios": (
        series.scenarios_spec,
        "Fault scenarios: omission / partition / churn degradation",
    ),
    "fuzz": (
        series.fuzz_spec,
        "Differential fuzz: backend parity + safety and paper-bound oracles",
    ),
    "adversary": (
        series.adversary_spec,
        "Adversary search: annealed worst-case constants vs t (crash model)",
    ),
    "smoke": (
        series.smoke_spec,
        "Profiling smoke: a seconds-scale Table 1 slice (see `profile`)",
    ),
}


def format_table(rows: list[dict]) -> str:
    """Align a list of row dicts into a printable text table: the
    telemetry summary's :func:`repro.obs.format_summary` (every key of
    every row is a column), with ``(no rows)`` for an empty list."""
    return format_summary(rows) if rows else "(no rows)"


def _profile_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-bench profile",
        description=(
            "Run one experiment instrumented: live progress heartbeats, a "
            "wall-clock profile table, and (with --out) Perfetto-loadable "
            "telemetry artifacts."
        ),
    )
    parser.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help=f"experiment id ({', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help=(
            "write <DIR>/<experiment>.events.jsonl and "
            "<DIR>/<experiment>.trace.json telemetry artifacts"
        ),
    )
    parser.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help="force progress heartbeats on (default: on when stderr is a TTY)",
    )
    parser.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="suppress progress heartbeats",
    )
    return parser.parse_args(argv)


def profile_main(argv: list[str]) -> int:
    """The ``repro-bench profile <experiment>`` subcommand."""
    from repro.obs import ProgressReporter, sweep_telemetry

    args = _profile_args(argv)
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {list(EXPERIMENTS)}"
        )
        return 2
    spec_builder, title = EXPERIMENTS[args.experiment]
    spec = spec_builder()
    reporter = ProgressReporter(
        total=len(spec.expand()),
        label=f"profile {args.experiment}",
        jobs=args.jobs,
        enabled=args.progress,
    )
    report = run_sweep(spec, jobs=args.jobs, progress=reporter.unit_done)
    reporter.close()
    telemetry = sweep_telemetry(report)
    print(
        f"== profile {args.experiment}: {title}  "
        f"[{report.elapsed:.1f}s, jobs={report.jobs}]"
    )
    print(format_summary(telemetry.summary_rows()))
    workers = report.worker_stats()
    print(
        "workers: "
        + "; ".join(
            f"pid {pid}: {info['units']} units, {info['busy_seconds']}s busy, "
            f"util {info['utilization']:.0%}"
            for pid, info in workers.items()
        )
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        events_path = os.path.join(args.out, f"{args.experiment}.events.jsonl")
        trace_path = os.path.join(args.out, f"{args.experiment}.trace.json")
        telemetry.write(events_path)
        telemetry.write(trace_path)
        print(
            f"   telemetry: {events_path} {trace_path}  "
            "(open the trace in ui.perfetto.dev)"
        )
    return 0


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.runner",
        description="Regenerate the paper-shaped experiment tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        metavar="EXPERIMENT",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes per sweep (default: 1, serial)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write <DIR>/<experiment>.json and .csv artifacts",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    args = _parse_args(argv)
    wanted = list(args.experiments)
    if wanted == ["all"]:
        wanted = list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; choose from {list(EXPERIMENTS)}")
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for name in wanted:
        spec_builder, title = EXPERIMENTS[name]
        spec = spec_builder()
        started = time.time()
        report = run_sweep(spec, jobs=args.jobs)
        elapsed = time.time() - started
        print(f"\n== {name}: {title}  [{elapsed:.1f}s, jobs={report.jobs}]")
        print(format_table(report.rows()))
        if args.out:
            json_path = os.path.join(args.out, f"{name}.json")
            csv_path = os.path.join(args.out, f"{name}.csv")
            write_json(report, json_path)
            write_csv(report.rows(), csv_path)
            print(f"   artifacts: {json_path} {csv_path}")
    return 0


def cli_main() -> int:
    """Entry point for the ``repro-bench`` console script."""
    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
