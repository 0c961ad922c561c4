"""Load generator for the run-server: ``repro-bench serve``.

Boots a :class:`~repro.serve.server.RunServer` over loopback TCP,
drives it through the public :class:`~repro.serve.client.ServeClient`
submit/stream API, and measures the service under three load shapes:

* ``steady`` -- a bounded-concurrency stream of mixed recipes
  (flooding + gossip), the sustained-throughput arm;
* ``churn`` -- every submission carries a crash+rejoin
  :class:`~repro.scenarios.Scenario`, so sessions exercise the REJOIN
  barrier leg while multiplexed (the tail-latency-under-churn arm);
* ``burst-1000`` -- all instances submitted at once with no
  concurrency cap, pinning the acceptance floor of >=1000 concurrent
  protocol instances on one hub.

Each row records instances/sec, p50/p99 completion latency (measured
from submit to the ``done`` stream event, per run), the server's
``peak_concurrent`` gauge, and ``parity_checked`` -- a sample of runs
whose served metrics are re-checked ``check_parity``-identical to
``run_recipe(backend="sim")`` with the same execution arguments.

Writes ``BENCH_serve.json`` (validated by
``tests/test_bench_artifacts.py``)::

    repro-bench serve                 # -> BENCH_serve.json
    repro-bench serve --quick         # small arms, print only
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from datetime import date
from pathlib import Path
from typing import Optional

from repro.api import run_recipe
from repro.check import check_parity
from repro.scenarios import Scenario
from repro.serve.client import ServeClient
from repro.serve.server import RunServer

__all__ = ["SCHEMA", "main", "run_arm"]

SCHEMA = "repro-bench-serve/1"

#: How many completed runs per arm get a full differential check
#: against the simulator (enough to catch systematic divergence
#: without re-running the whole arm serially).
PARITY_SAMPLE = 8


def _recipe(arm: str, i: int) -> tuple[dict, dict]:
    """The i-th (protocol, execution) pair for an arm.

    Deterministic in ``i`` so the parity re-check can reproduce the
    exact run on the simulator.
    """
    if arm == "churn":
        # One crashed node plus one down-then-rejoin node per session;
        # the rejoin lands before the flooding halt round so the run
        # still terminates (a later rejoin would idle to max_rounds).
        n = 8
        scenario = Scenario(
            n=n,
            crashes=[(1, 1, None)],
            churn=[(2, 1, 3, None)],
        )
        protocol = {
            "name": "flooding",
            "inputs": [(i + j) % 2 for j in range(n)],
            "t": 3,
        }
        return protocol, {"scenario": scenario.to_dict(), "seed": i}
    if i % 3 == 2 and arm == "steady":
        # Mix in a second family so the arm is not one code path.
        rumors = [f"r{i}-{j}" for j in range(6)]
        return {"name": "gossip", "rumors": rumors, "t": 1}, {
            "crashes": None,
            "seed": i,
        }
    n = 4
    protocol = {
        "name": "flooding",
        "inputs": [(i + j) % 2 for j in range(n)],
        "t": 1,
    }
    return protocol, {"crashes": "early", "seed": i}


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


async def _drive(
    arm: str,
    count: int,
    *,
    workers: int,
    concurrency: Optional[int],
) -> dict:
    # The burst arm completes ~all instances at once, so the per-client
    # stream queue needs room for one result per in-flight run -- at
    # the default bound the server's slow-consumer guard would (by
    # design) drop the connection mid-burst.
    server = RunServer(
        workers=workers,
        session_timeout=None,
        stream_queue=max(256, count + 64),
    )
    await server.start()
    port = await server.listen("127.0.0.1", 0)
    client = await ServeClient.connect("127.0.0.1", port)
    latencies: list = []
    failed = 0
    gate = asyncio.Semaphore(concurrency) if concurrency else None
    started = time.perf_counter()

    async def one(i: int) -> None:
        nonlocal failed
        if gate is not None:
            await gate.acquire()
        try:
            protocol, execution = _recipe(arm, i)
            t0 = time.perf_counter()
            run_id = await client.submit(protocol, execution)
            result = await client.result(run_id)
            latencies.append(time.perf_counter() - t0)
            if not result.completed:
                failed += 1
        except Exception:
            failed += 1
        finally:
            if gate is not None:
                gate.release()

    await asyncio.gather(*(one(i) for i in range(count)))
    elapsed = time.perf_counter() - started
    status = await client.status()

    # Differential spot-check: a sample of runs must be metric-identical
    # to the simulator executing the same recipe + execution arguments.
    parity_checked = 0
    step = max(1, count // PARITY_SAMPLE)
    for i in range(0, count, step):
        protocol, execution = _recipe(arm, i)
        run_id = await client.submit(protocol, execution)
        served = await client.result(run_id)
        direct_exec = dict(execution)
        if isinstance(direct_exec.get("scenario"), dict):
            direct_exec["scenario"] = Scenario.from_dict(direct_exec["scenario"])
        direct = run_recipe(protocol, backend="sim", **direct_exec)
        check_parity(served, direct)
        parity_checked += 1

    await client.close()
    await server.close()
    latencies.sort()
    return {
        "arm": arm,
        "instances": count,
        "workers": workers,
        "concurrency": concurrency,
        "instances_per_sec": round(count / max(elapsed, 1e-9), 1),
        "p50_latency_ms": round(_percentile(latencies, 0.50) * 1000, 2),
        "p99_latency_ms": round(_percentile(latencies, 0.99) * 1000, 2),
        "peak_concurrent": status["peak_concurrent"],
        "completed": len(latencies) - failed,
        "failed": failed,
        "parity_checked": parity_checked,
        "elapsed_sec": round(elapsed, 3),
    }


def run_arm(
    arm: str,
    count: int,
    *,
    workers: int = 0,
    concurrency: Optional[int] = None,
) -> dict:
    """Run one load shape and return its artifact row."""
    return asyncio.run(_drive(arm, count, workers=workers, concurrency=concurrency))


def run_grid(quick: bool = False) -> list:
    if quick:
        return [
            run_arm("steady", 40, concurrency=20),
            run_arm("churn", 20, concurrency=10),
            run_arm("burst-1000", 100),
        ]
    return [
        run_arm("steady", 400, concurrency=100),
        run_arm("churn", 200, concurrency=100),
        run_arm("burst-1000", 1000),
    ]


def headline(rows: list) -> str:
    by_arm = {row["arm"]: row for row in rows}
    burst = by_arm["burst-1000"]
    churn = by_arm["churn"]
    return (
        f"{burst['peak_concurrent']} concurrent instances on one hub at "
        f"{burst['instances_per_sec']:.0f} inst/s; churn arm p50/p99 "
        f"{churn['p50_latency_ms']:.0f}/{churn['p99_latency_ms']:.0f} ms, "
        f"{sum(r['parity_checked'] for r in rows)} runs parity-checked "
        f"vs the simulator"
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench serve", description=__doc__
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path.cwd() / "BENCH_serve.json",
        help="artifact path (default: ./BENCH_serve.json)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small arms, print only"
    )
    args = parser.parse_args(argv)

    rows = run_grid(quick=args.quick)
    artifact = {
        "schema": SCHEMA,
        "generated": date.today().isoformat(),
        "command": "repro-bench serve" + (" --quick" if args.quick else ""),
        "python": sys.version.split()[0],
        "headline": headline(rows),
        "rows": rows,
    }
    if args.quick:
        json.dump(artifact, sys.stdout, indent=2)
        print()
    else:
        args.out.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"wrote {args.out}")
    print(artifact["headline"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
