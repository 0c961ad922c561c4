"""Rungs, timed passes and the correctness gate of the perf ladder.

A *rung* is one way a user executes a list of instances: ``run_recipe`` on
a backend (``sim`` / ``vec`` / ``net`` / ``tcp``), the in-process
``run_many`` facade, or a ``python -m repro.serve`` child driven through one
``ServeClient`` connection in a closed loop.  A *pass* is one sweep of the
workload's instance list over one rung, build included, caches warm.

Timed passes run with telemetry, trace recording and the benchmark's own
spans off; results are kept and verified after the clock has stopped.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.api import run_recipe
from repro.check.oracles import OracleViolation, check_parity, run_oracles
from repro.serve import ServeClient, run_many

clock = time.perf_counter

SRC = Path(__file__).resolve().parents[2] / "src"

#: In-flight submissions of the closed loop: callers are batch submitters
#: that wait for their result before sending the next recipe.
WINDOW = 16

#: Instances a serve-style rung runs before timing starts.
SERVE_WARMUP = 32


# -- rungs -------------------------------------------------------------------


class Rung:
    """One way to execute an instance list.  ``sweep(instances)`` is one
    pass: ``(wall seconds, results, per-instance seconds)``, an instance
    that raised yielding its exception as the result."""

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def warmup(self, instances: list) -> list:
        """The instances to run once before timing starts.  Nothing in a
        server is keyed by recipe, so a slice warms it as well as a full
        pass."""
        return instances[:SERVE_WARMUP]


class DirectRung(Rung):
    """``run_recipe(recipe, backend=...)`` per instance, one after another."""

    def __init__(self, backend: str):
        self.name = backend

    def warmup(self, instances: list) -> list:
        # Every instance once: overlay graphs are cached per (n, degree,
        # seed), so only a full pass leaves the caches as a timed pass
        # finds them.
        return instances

    def sweep(self, instances: list, **extra) -> tuple:
        results, latencies = [], []
        start = clock()
        for inst in instances:
            t0 = clock()
            try:
                result = run_recipe(
                    inst.recipe, backend=self.name, **inst.execution(), **extra
                )
            except Exception as exc:  # counted as a failed operation
                result = exc
            latencies.append(clock() - t0)
            results.append(result)
        return clock() - start, results, latencies


class RunManyRung(Rung):
    """The whole list through ``repro.serve.run_many``: a private in-process
    server on the memory hub, every session submitted up front."""

    name = "run_many"

    def sweep(self, instances: list) -> tuple:
        batch = [(inst.recipe, inst.wire_execution()) for inst in instances]
        start = clock()
        try:
            results = run_many(batch)
        except Exception as exc:  # one failure fails the batch
            results = [exc] * len(instances)
        # A burst has no per-instance latency worth the name.
        return clock() - start, results, []


class ServeRung(Rung):
    """A ``python -m repro.serve --port 0 --workers 0`` child and one
    ``ServeClient`` connection; passes are closed-loop with ``window``
    submissions in flight (the traced run also probes 4 and 32)."""

    name = "serve"

    def __init__(self):
        self.window = WINDOW
        self.server = None
        self.loop = None
        self.client = None
        self.server_rss_mb = 0.0

    def open(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        banner = self.server.stdout.readline()
        match = re.search(r":(\d+) ", banner)
        if match is None:
            self.close()
            raise RuntimeError(f"run-server did not announce a port: {banner!r}")
        self.loop = asyncio.new_event_loop()
        self.client = self.loop.run_until_complete(
            ServeClient.connect("127.0.0.1", int(match.group(1)))
        )

    def close(self) -> None:
        if self.client is not None:
            self.loop.run_until_complete(self.client.close())
            self.client = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.server is not None:
            self.server_rss_mb = max(self.server_rss_mb, _peak_rss_of(self.server.pid))
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def sweep(self, instances: list) -> tuple:
        return self.loop.run_until_complete(self._closed_loop(instances))

    async def _closed_loop(self, instances: list) -> tuple:
        results = [None] * len(instances)
        latencies = [0.0] * len(instances)
        todo = iter(enumerate(instances))

        async def caller() -> None:
            for index, inst in todo:
                t0 = clock()
                try:
                    run_id = await self.client.submit(
                        inst.recipe, inst.wire_execution()
                    )
                    results[index] = await self.client.result(run_id)
                except Exception as exc:  # counted as a failed operation
                    results[index] = exc
                latencies[index] = clock() - t0

        start = clock()
        await asyncio.gather(*(caller() for _ in range(self.window)))
        return clock() - start, results, latencies


def make_rung(name: str):
    if name == "run_many":
        return RunManyRung()
    if name == "serve":
        return ServeRung()
    return DirectRung(name)


# -- correctness gate --------------------------------------------------------


class Gate:
    """Counts operations attempted and failed, and says which failed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def fail(self, rung: str, index, what: str) -> None:
        self.failed += 1
        print(
            f"FAILED workload={self.workload} rung={rung} instance={index} "
            f"seed={self.seed}: {what}",
            file=sys.stderr,
        )

    def check(self, rung: str, index: int, inst, result, reference) -> None:
        """One operation: exception, ``completed=False``, a
        ``repro.properties`` predicate or model invariant failing (gated as
        ``repro.check.oracles`` gates them: omission/partition/churn
        instances are held to parity and completion only), or a parity
        mismatch against the ``sim`` result of the same instance."""
        self.attempted += 1
        problem = _problem(rung, inst, result, reference)
        if problem is not None:
            self.fail(rung, f"#{index} ({inst.label})", problem)

    def check_pass(self, rung: str, instances: list, results: list, reference) -> tuple:
        """Verify one pass; returns its ``(rounds, msgs, bits)`` totals."""
        for index, (inst, result) in enumerate(zip(instances, results)):
            expected = reference[index] if reference is not None else None
            self.check(rung, index, inst, result, expected)
        return model_totals(results)


def _problem(rung: str, inst, result, reference):
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if not result.completed:
        return "completed=False"
    violations, _certificate = run_oracles(
        inst.label,
        inst.recipe,
        result,
        scenario=inst.scenario,
        max_rounds=inst.max_rounds or 100_000,
        include_bounds=False,
    )
    if violations:
        return "; ".join(f"{v['oracle']}: {v['detail']}" for v in violations)
    if reference is not None and not isinstance(reference, Exception):
        try:
            check_parity(reference, result, "sim", rung)
        except OracleViolation as exc:
            return str(exc)
    return None


def model_totals(results: list) -> tuple:
    """The paper's cost measures summed over one pass."""
    good = [r for r in results if not isinstance(r, Exception)]
    return (
        sum(r.rounds for r in good),
        sum(r.messages for r in good),
        sum(r.bits for r in good),
    )


# -- timing ------------------------------------------------------------------

#: What :func:`calibrate` reads on the quiet 2-core box this was sized on.
NOMINAL_CALIBRATION_S = 0.025


def calibrate() -> float:
    """Seconds a fixed interpreter-bound loop takes right now.

    The host this benchmark runs on is shared: the same code takes 1.0x to
    1.5x its quiet time there, for seconds to minutes on end, depending on
    the machine's other tenants, so a pass as the clock reads it says as much
    about the neighbours as about the program.  This loop is therefore timed
    just before and just after every timed pass, and the pass is divided by
    how much slower than nominal the loop ran.  README.md has the
    measurements this rests on."""
    start = clock()
    table = {}
    for i in range(120_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * i
    pairs = [(i, str(i)) for i in range(30_000)]
    del pairs
    return clock() - start


def host_factor(readings: list) -> float:
    """How much slower than nominal the host ran, from ``calibrate()``
    readings; a time divided by it is in seconds on the nominal host."""
    return statistics.fmean(readings) / NOMINAL_CALIBRATION_S


def timed_passes(rungs, instances, reference, gate, seconds: float, min_passes: int) -> dict:
    """Sweep the rungs in turn until each has ``min_passes`` passes and
    ``seconds`` have been timed in all; every pass is verified after its
    clock stopped.  The next pass always goes to the rung with the fewest
    timed seconds so far, so the rungs share ``seconds`` equally and each
    one samples the whole run instead of one half of it.

    Per rung: ``passes`` and ``per_instance`` are times as the clock read
    them, ``factors`` each pass's host factor, read just before and just
    after it."""
    runs = {
        rung.name: {"passes": [], "factors": [], "per_instance": [[] for _ in instances], "totals": set()}
        for rung in rungs
    }

    def spent(rung) -> float:
        return sum(runs[rung.name]["passes"])

    while True:
        short = [rung for rung in rungs if len(runs[rung.name]["passes"]) < min_passes]
        if not short and sum(map(spent, rungs)) >= seconds:
            return runs
        rung = min(short or rungs, key=spent)
        run = runs[rung.name]
        gc.collect()
        before = calibrate()
        wall, results, latencies = rung.sweep(instances)
        run["factors"].append(host_factor([before, calibrate()]))
        run["passes"].append(wall)
        for samples, value in zip(run["per_instance"], latencies):
            samples.append(value)
        run["totals"].add(gate.check_pass(rung.name, instances, results, reference))


def on_nominal_host(run: dict) -> tuple:
    """``(pass seconds, per-instance seconds)`` of one rung's timed passes,
    each divided by the host factor of the pass it was taken in."""
    factors = run["factors"]
    passes = [wall / factor for wall, factor in zip(run["passes"], factors)]
    latencies = [
        value / factor for samples in run["per_instance"] for value, factor in zip(samples, factors)
    ]
    return passes, latencies


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _peak_rss_of(pid: int) -> float:
    """Peak resident set of a live process in MB (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(rungs: list) -> float:
    """``ru_maxrss`` of this process plus the server child's, if any."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(getattr(rung, "server_rss_mb", 0.0) for rung in rungs)
