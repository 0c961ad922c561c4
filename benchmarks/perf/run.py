"""The perf ladder: one command for every end-to-end and per-layer number.

    python benchmarks/perf/run.py --seed S            # all four workloads
    python benchmarks/perf/run.py --seed S --trace    # ... plus the traced run
    python benchmarks/perf/run.py --quick             # shrunken, <10 s, no history
    python benchmarks/perf/run.py compare A B         # two labels of history.jsonl

    # one workload, the form BENCHMARK.json's driver uses
    python benchmarks/perf/run.py --workload dense-flood --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh process; its last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the metric glossary and how the numbers interact.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here: before any heavy import

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"

#: Suite-mode measuring time per workload; with set-up and verification a
#: workload then takes 30-60 s.  The driver passes its own ``--seconds``.
SUITE_SECONDS = 36
QUICK_SECONDS = 0.2
MIN_PASSES = 5
SETUP_REPS = 3


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload (runs in its own process) ----------------------------------


def set_up(workload, gate):
    """Everything before the first timed pass: the ``sim`` reference pass
    (cold overlay/graph construction, first build of every instance),
    opening each rung (server boot) and one warm-up pass on it."""
    from harness import DirectRung, make_rung

    _wall, reference, _lat = DirectRung("sim").sweep(workload.instances)
    gate.check_pass("sim", workload.instances, reference, None)
    rungs = []
    try:
        for name in workload.rungs:
            rung = make_rung(name)
            rungs.append(rung)
            rung.open()
            if name == "sim":
                continue  # the reference pass was its warm-up
            warm = rung.warmup(workload.instances)
            _wall, results, _lat = rung.sweep(warm)
            gate.check_pass(name, warm, results, reference)
    except BaseException:
        for rung in rungs:
            rung.close()
        raise
    return rungs, reference


def probe_set_up(args) -> float:
    """Set up once more in a fresh process; returns its ``setup_s``."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end(workload, rungs, reference, gate, args, own_setup_s: float) -> tuple:
    """The untraced run: timed passes on both rungs, then two more set-ups.
    Pass times and latencies are on the nominal host (see ``harness.calibrate``)."""
    from harness import (
        model_totals, on_nominal_host, peak_rss_mb, percentile, timed_passes,
    )

    try:
        runs = timed_passes(
            rungs, workload.instances, reference, gate,
            args.seconds, 2 if args.quick else MIN_PASSES,
        )
    finally:
        for rung in rungs:
            rung.close()
    expected = model_totals(reference)
    for rung in rungs:
        totals = runs[rung.name]["totals"]
        if totals != {expected}:
            gate.fail(rung.name, "all", f"model totals {sorted(totals)} != sim {expected}")
    # Further set-ups, each in a fresh process, now that the server child is
    # gone: never more than two runnable processes.
    setups = [own_setup_s]
    setups += [probe_set_up(args) for _ in range((1 if args.quick else SETUP_REPS) - 1)]
    (first, _), (second, latencies) = (on_nominal_host(runs[rung.name]) for rung in rungs)
    values = {
        "setup_s": statistics.median(setups),
        "rung1_pass_s": statistics.median(first),
        "rung2_pass_s": statistics.median(second),
        "lat_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "lat_p95_ms": 1000.0 * percentile(latencies, 0.95),
        "peak_rss_mb": peak_rss_mb(rungs),
        "model_rounds": expected[0],
        "model_msgs": expected[1],
        "model_bits": expected[2],
    }
    detail = {
        "setup_s": _spread(setups),
        "rung1_pass_s": {**_spread(first), "wall": statistics.median(runs[rungs[0].name]["passes"])},
        "rung2_pass_s": {**_spread(second), "wall": statistics.median(runs[rungs[1].name]["passes"])},
        "lat_p50_ms": {"n": len(latencies)},
        "lat_p95_ms": {"n": len(latencies)},
    }
    return values, detail


def run_workload(args, started: float = _T0) -> int:
    """One workload in this process; ``started`` is when its set-up began."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from harness import Gate
    from workloads import build_workload

    contract = load_contract()
    workload = build_workload(args.workload, args.seed, "quick" if args.quick else "full")
    gate = Gate(workload.name, args.seed)
    rungs, reference = set_up(workload, gate)
    own_setup_s = time.perf_counter() - started
    if args.setup_probe:
        for rung in rungs:
            rung.close()
        print(json.dumps({"setup_s": own_setup_s, "failed": gate.failed}))
        return 0 if gate.failed == 0 else 1

    declared = contract["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if args.trace:
        from layers import traced_run

        try:
            values, detail = traced_run(workload, rungs, reference, gate, args, list(units), OUT)
        finally:
            for rung in rungs:
                rung.close()
    else:
        values, detail = end_to_end(workload, rungs, reference, gate, args, own_setup_s)
    if set(values) != set(units):
        sys.exit(f"benchmark bug: measured and declared metrics differ: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print_table(workload, args, metrics, detail, result)
    OUT.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "run"
    with open(OUT / f"{kind}-{workload.name}.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "detail": detail, "seed": args.seed, "rungs": workload.rungs}, handle, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def _spread(samples: list) -> dict:
    from harness import quartiles

    q1, _median, q3 = quartiles(samples)
    return {"q1": q1, "q3": q3, "n": len(samples)}


def print_table(workload, args, metrics, detail, result) -> None:
    rung1, rung2 = workload.rungs
    print(
        f"== {workload.name}  seed={args.seed}  rungs {rung1} -> {rung2}  "
        f"({len(workload.instances)} instances/pass; closed loop, no injected "
        "message delay: every latency is processor time; passes and "
        "latencies are on the nominal host)"
    )
    print(f"  why: {workload.why}")
    notes = {
        "setup_s": "[median of fresh processes]",
        "rung1_pass_s": f"[{rung1}, median pass]",
        "rung2_pass_s": f"[{rung2}, median pass]",
        "lat_p50_ms": f"[{rung2}, every call of every pass]",
        "lat_p95_ms": f"[{rung2}, every call of every pass]",
    }
    idle = [name for name, metric in metrics.items() if metric["value"] == 0]
    for name, metric in metrics.items():
        if args.trace and name in idle:
            continue
        extra = detail.get(name, {})
        spread = ""
        if "q1" in extra:
            spread = f"  quartiles [{extra['q1']:.4g}, {extra['q3']:.4g}]"
        if "n" in extra:
            spread += f"  n={extra['n']}"
        if "wall" in extra:
            spread += f"  (clock read {extra['wall']:.4g})"
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:6s}{notes.get(name, '')}{spread}")
    if not args.trace:
        per_s = len(workload.instances) / metrics["rung2_pass_s"]["value"]
        print(f"  {'(' + rung2 + ' instances per second)':34s} {per_s:>14.6g} 1/s")
    if args.trace:
        print(f"  ({len(idle)} per-layer metrics read 0: those layers did no work in this workload)")
    print(
        f"  operations attempted {result['attempted']}, failed {result['failed']}"
        f" (failed_frac {result['failed'] / result['attempted']:.3g})"
    )


# -- the suite (one fresh child per workload) --------------------------------


def provenance() -> dict:
    def git(*command) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *command],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # an exported checkout is not a git repository
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_suite(args) -> int:
    contract = load_contract()
    seconds = args.seconds or (QUICK_SECONDS if args.quick else SUITE_SECONDS)
    prov = provenance()
    label = args.label or f"{prov['commit'][:8]}-{time.strftime('%Y%m%dT%H%M%S')}"
    status = 0
    lines = []
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            started = time.perf_counter()
            if args.quick:
                # One process for the whole quick suite: it reports no
                # set-up time or memory worth keeping, and four interpreter
                # starts would be half of its ten seconds.
                code = run_workload(
                    argparse.Namespace(
                        workload=workload, seed=args.seed, seconds=seconds,
                        trace=trace, quick=True, setup_probe=False,
                    ),
                    started,
                )
            else:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(seconds),
                    "--trace", str(trace),
                ]
                code = subprocess.run(command).returncode
            wall = time.perf_counter() - started
            if code != 0:
                print(f"{workload}: exited with code {code}", file=sys.stderr)
                status = 1
                continue
            kind = "layers" if trace else "run"
            with open(OUT / f"{kind}-{workload}.json", encoding="utf-8") as handle:
                result = json.load(handle)
            detail = result["detail"]
            if not result["correct"]:
                status = 1
            print(f"  ({workload} {kind} took {wall:.1f} s)", flush=True)
            if not trace:
                lines.append({
                    "label": label,
                    "when": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    **prov,
                    "seed": args.seed,
                    "seconds": seconds,
                    "workload": workload,
                    "wall_s": round(wall, 2),
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {
                        name: {**metric, **detail.get(name, {})}
                        for name, metric in result["metrics"].items()
                    },
                })
    if not args.quick:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        print(f"appended {len(lines)} lines to {HISTORY.relative_to(ROOT)} as label {label}")
    return status


# -- compare -----------------------------------------------------------------


def _side(lines: list) -> tuple:
    """``(median, q1, q3, values)`` of one label's runs of one metric.  With
    a single run the value is the median of its passes and the quartiles are
    theirs (absent for counts and percentiles, which then have no spread)."""
    values = [line["value"] for line in lines]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return median, q1, q3, values
    only = lines[0]
    return only["value"], only.get("q1", only["value"]), only.get("q3", only["value"]), values


def verdict(metric: dict, side_a: tuple, side_b: tuple, exact: bool = False) -> str:
    """``better`` / ``same`` / ``worse`` by the metric's bound, or
    ``unresolved`` when either side's spread is wider than the bound and the
    two sides' runs overlap.  ``exact``: the bound is 0, any difference is a
    change (model counts of two sides that ran the same seeds)."""
    bound = 0.0 if exact else metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    (med_a, q1_a, q3_a, values_a), (med_b, q1_b, q3_b, values_b) = side_a, side_b
    worsening = sign * (med_b - med_a) / med_a
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    if spread > bound:
        # ... unless every run of B reads better than every run of A; a side
        # with one run is as wide as the quartiles of its passes.
        if max(sign * v for v in (*values_b, q1_b, q3_b)) < min(sign * v for v in (*values_a, q1_a, q3_a)):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def compare(label_a: str, label_b: str) -> int:
    contract = load_contract()
    with open(HISTORY, encoding="utf-8") as handle:
        history = [json.loads(line) for line in handle if line.strip()]
    print(
        f"{'workload':13s} {'metric':13s} {'unit':5s} "
        f"{'A value [q1, q3] runs':>38s} {'B value [q1, q3] runs':>38s} {'bound':>5s}  verdict"
    )
    print("(several runs under a label: their median and quartiles; one run: its value and the quartiles of its passes)")
    for workload in (w["name"] for w in contract["workloads"]):
        runs = [
            [
                line for line in history
                if line["workload"] == workload
                and (line["label"] == label or line["commit"].startswith(label))
            ]
            for label in (label_a, label_b)
        ]
        if not all(runs):
            print(f"{workload:13s} no runs under one of the labels")
            continue
        # The model cost is a function of the seed alone.
        same_seeds = sorted(line["seed"] for line in runs[0]) == sorted(line["seed"] for line in runs[1])
        for metric in contract["end_to_end"]:
            exact = same_seeds and metric["unit"] == "count"
            side_a, side_b = (_side([line["metrics"][metric["name"]] for line in side]) for side in runs)
            cells = [
                f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(values)}"
                for med, q1, q3, values in (side_a, side_b)
            ]
            print(
                f"{workload:13s} {metric['name']:13s} {metric['unit']:5s} "
                f"{cells[0]:>38s} {cells[1]:>38s} {0.0 if exact else metric['bound']:>5.2f}  "
                f"{verdict(metric, side_a, side_b, exact)}"
            )
    return 0


def main() -> int:
    if sys.argv[1:2] == ["compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A B   (labels or commit prefixes in history.jsonl)")
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="drives every generated input")
    parser.add_argument("--seconds", type=float, default=0, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics, Chrome trace in out/)")
    parser.add_argument("--quick", action="store_true", help="shrunken sizes, no history write")
    parser.add_argument("--label", help="history label of this run set (default: commit-time)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
    if importlib.util.find_spec("numpy") is None:
        sys.exit("the vec rung of dense-flood and family-suite needs numpy (the repo's [vec] extra)")
    if args.workload is None:
        return run_suite(args)
    names = [w["name"] for w in load_contract()["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names}")
    if not args.seconds:
        args.seconds = QUICK_SECONDS if args.quick else SUITE_SECONDS
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
