"""``python -m repro.check`` -- the differential fuzzing entry point.

Usage::

    python -m repro.check --seed 0 --budget 200            # the default gauntlet
    python -m repro.check --seed 7 --budget 50 --jobs 4    # parallel, same rows
    python -m repro.check --seed 0 --only 13               # replay one config
    python -m repro.check --families gossip,scv --tcp      # narrow + real sockets
    python -m repro.check --search --seed 0                # adversary search
    python -m repro.check --search --objective comm --moves crash --budget 200

The run is deterministic given ``--seed``: configuration ``i`` is a
pure function of ``(seed, i)``, so a violation reported by the nightly
job reproduces locally from its index alone.  Work units fan out over
``--jobs`` processes via the sweep scheduler (rows independent of the
worker count).  On any violation the failing scenario is shrunk to a
minimal one (greedy deletion/narrowing, re-running after each
mutation) and written to ``--out`` as a self-contained trace artifact
that ``repro.trace.replay_trace(path)`` reproduces anywhere; the exit
status is non-zero.

``--search`` switches from blind fuzzing to the optimization-guided
adversary search of :mod:`repro.check.search`: one simulated-annealing
walk per family over scenario space, maximizing the measured bound
ratio, with the top-``k`` worst scenarios emitted as self-contained
replayable trace artifacts (search trajectory in
``Trace.meta["repro.search"]``).  Deterministic given ``--seed``,
jobs-independent down to the artifact bytes.

Long budgets used to print nothing until the end; now a throttled
heartbeat (configs done/budget, configs/sec, eta, worker utilization,
last sampled family/kind) goes to stderr while the sweep runs -- on by
default when stderr is a TTY, forced either way with ``--progress`` /
``--no-progress``.  Heartbeats ride the sweep scheduler's completion
stream, so they never affect the rows (stdout stays machine-readable).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import BACKENDS
from repro.bench.sweep import run_sweep
from repro.check.driver import (
    DEFAULT_BACKENDS,
    FAMILIES,
    build_fuzz_spec,
    describe_fuzz_outcome,
    sample_config,
)
from repro.check.search import (
    MOVE_SETS,
    OBJECTIVES,
    build_search_spec,
    describe_search_outcome,
    record_search_trace,
)
from repro.check.shrink import emit_artifact, shrink_scenario
from repro.obs import ProgressReporter

__all__ = ["main"]

#: Replay backends the driver understands: every backend but the
#: primary, which is always sim-opt.  ``vec`` joins the default rotation
#: automatically for kernel families when numpy is installed; naming it
#: here forces it for every config instead.
KNOWN_BACKENDS = tuple(name for name in BACKENDS if name != "sim-opt")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description=(
            "Differential fuzzing of the paper's protocols across "
            "sim-opt/sim-ref/net with safety and paper-bound oracles; "
            "violations are shrunk to minimal replayable scenarios."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="series seed (default 0)")
    parser.add_argument(
        "--budget", type=int, default=100,
        help="number of configurations to run (default 100)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes (default 1; rows are jobs-independent)",
    )
    parser.add_argument(
        "--only", type=str, default=None, metavar="I[,J...]",
        help="run only these configuration indices of the seed's series",
    )
    parser.add_argument(
        "--families", type=str, default="",
        help=f"comma-joined subset of {','.join(FAMILIES)}",
    )
    parser.add_argument(
        "--backends", type=str, default="",
        help=(
            "comma-joined replay backends (default "
            f"{','.join(DEFAULT_BACKENDS)}); the primary always runs sim-opt"
        ),
    )
    parser.add_argument(
        "--tcp", action="store_true",
        help="also replay every configuration over loopback TCP sockets",
    )
    parser.add_argument(
        "--out", type=str, default="fuzz-artifacts", metavar="DIR",
        help="directory for shrunk trace artifacts (default fuzz-artifacts/)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without shrinking (faster triage loop)",
    )
    parser.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help=(
            "print periodic progress lines to stderr (configs done/budget, "
            "configs/sec, eta, current family/seed); the default is on when "
            "stderr is a TTY"
        ),
    )
    parser.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="suppress progress lines even on a TTY",
    )
    search = parser.add_argument_group(
        "adversary search (--search)",
        "annealing over scenario space for the worst measured bound ratio",
    )
    search.add_argument(
        "--search", action="store_true",
        help=(
            "run the optimization-guided adversary search instead of blind "
            "fuzzing: one walk per family, --budget scenario evaluations each"
        ),
    )
    search.add_argument(
        "--objective", choices=OBJECTIVES, default="max",
        help=(
            "what to maximize: rounds-ratio, comm-ratio, or the larger of "
            "the two (default max; use comm to climb the communication "
            "constant on the oblivious-schedule families)"
        ),
    )
    search.add_argument(
        "--moves", choices=MOVE_SETS, default="all",
        help=(
            "move set: all fault classes, or crash/churn only to stay "
            "inside the paper's crash model (default all)"
        ),
    )
    search.add_argument(
        "--top-k", type=int, default=3, metavar="K",
        help="adversarial scenarios emitted as trace artifacts per family "
             "(default 3)",
    )
    search.add_argument(
        "--n", type=int, default=None,
        help="pin the instance size (default: sampled per family, the same "
             "distribution the fuzzer draws from)",
    )
    search.add_argument(
        "--t", type=int, default=None,
        help="pin the instance fault bound (default: sampled)",
    )
    return parser


def _names(arg: str, kind: str, known, default):
    """A comma-joined ``--families`` / ``--backends`` list, validated."""
    names = tuple(name for name in arg.split(",") if name)
    for name in names:
        if name not in known:
            raise SystemExit(
                f"unknown {kind} {name!r}; choose from {', '.join(known)}"
            )
    return names or default


def _sweep(spec, args, label: str, describe):
    """Run ``spec`` over ``--jobs`` workers with progress heartbeats."""
    reporter = ProgressReporter(
        total=len(spec.expand()),
        label=label,
        jobs=args.jobs,
        describe=describe,
        enabled=args.progress,
    )
    report = run_sweep(spec, jobs=args.jobs, progress=reporter.unit_done)
    reporter.close()
    return report


def _search_main(args, families) -> int:
    """The ``--search`` mode: one adversary search per family."""
    spec = build_search_spec(
        args.seed,
        args.budget,
        families=families,
        moves=args.moves,
        objective=args.objective,
        n=args.n,
        t=args.t,
        top_k=args.top_k,
    )
    report = _sweep(spec, args, "repro.check --search", describe_search_outcome)
    rows = report.rows()
    print(
        f"repro.check --search: {len(rows)} families x {args.budget} "
        f"evaluations (objective={args.objective}, "
        f"moves={args.moves}, seed={args.seed}) "
        f"[{report.elapsed:.1f}s, jobs={report.jobs}]"
    )
    for row in rows:
        print(
            f"  {row['family']:>16} (n={row['n']}, t={row['t']}, "
            f"{row['backend']}): baseline {row['baseline_energy']:.4f} -> "
            f"best {row['best_energy']:.4f} (gain {row['gain']:+.4f}, "
            f"rounds-ratio {row['best_rounds_ratio']:.4f}, comm-ratio "
            f"{row['best_comm_ratio']:.4f}, faults {row['faults']}, "
            f"{row['evaluations']} runs, {row['spot_checks']} spot-checks)"
        )
        # Top-k adversarial scenarios -> self-contained replayable
        # artifacts, written in row order (jobs-independent bytes).
        for entry in row["top"]:
            path = record_search_trace(row, entry, args.out)
            print(
                f"    #{entry['rank']} energy {entry['energy']:.4f} "
                f"(step {entry['step']}): {path}"
            )
    best = max(rows, key=lambda r: r["best_energy"], default=None)
    if best is not None:
        print(
            f"worst case overall: {best['family']} at "
            f"{best['best_energy']:.4f} "
            f"(replay any artifact with repro.trace.replay_trace)"
        )
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    families = _names(args.families, "family", FAMILIES, FAMILIES)
    if args.search:
        return _search_main(args, families)
    backends = _names(args.backends, "backend", KNOWN_BACKENDS, DEFAULT_BACKENDS)
    if args.tcp and "tcp" not in backends:
        backends = backends + ("tcp",)
    indices = None
    if args.only is not None:
        indices = [int(part) for part in args.only.split(",") if part]
    spec = build_fuzz_spec(
        args.seed,
        args.budget,
        families=",".join(families) if args.families else "",
        backends=",".join(backends),
        indices=indices,
    )
    report = _sweep(spec, args, "repro.check", describe_fuzz_outcome)
    rows = report.rows()

    clean = [row for row in rows if not row["violations"]]
    failures = [row for row in rows if row["violations"]]
    by_family: dict[str, int] = {}
    for row in rows:
        by_family[row["family"]] = by_family.get(row["family"], 0) + 1
    print(
        f"repro.check: {len(rows)} configurations (seed={args.seed}, "
        f"backends sim-opt+{'+'.join(backends)}), "
        f"{len(clean)} clean, {len(failures)} violating "
        f"[{report.elapsed:.1f}s, jobs={report.jobs}]"
    )
    print(
        "families: "
        + ", ".join(f"{name}={count}" for name, count in sorted(by_family.items()))
    )
    ratios = [row["comm_ratio"] for row in rows if row.get("comm_ratio")]
    if ratios:
        print(
            f"paper-bound certificates: {len(ratios)} armed, "
            f"max comm/bound ratio {max(ratios):.3f}"
        )

    for row in failures:
        index = row["index"]
        print(f"\nVIOLATION at index {index} ({row['family']}, {row['kind']}):")
        for violation in row.get("violation_details", []):
            print(f"  [{violation['oracle']}] {violation['detail']}")
        config = sample_config(
            args.seed, index, families=families, backends=backends
        )
        if args.no_shrink:
            continue
        shrunk = shrink_scenario(config, row.get("violation_details", []))
        path = emit_artifact(config, shrunk, args.out)
        summary = shrunk.summary()
        print(
            f"  shrunk scenario {summary['original_size']} -> "
            f"{summary['minimal_size']} (size units) in {summary['steps']} "
            f"steps / {summary['runs']} re-runs"
        )
        print(f"  artifact: {path}  (replay_trace(path) reproduces it)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
