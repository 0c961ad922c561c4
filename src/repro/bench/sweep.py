"""Declarative parallel experiment sweeps.

The paper's claims are asymptotic, so checking them empirically means
running dense (n, t, crash-kind, seed, algorithm) grids — far more
executions than a serial loop handles comfortably.  This module turns a
declarative grid into independent work units, fans them out across
cores with :mod:`multiprocessing`, collects the results in declaration
order, and serialises them as JSON/CSV artifacts for trajectory
tracking.

Determinism contract
--------------------
A sweep's output depends only on its spec, never on the worker count:

* units are expanded in a fixed order (cartesian product over the grid
  axes in declaration order, last axis varying fastest);
* every unit that does not pin a ``seed`` gets one derived from the
  spec's ``base_seed`` and the unit's own parameters via
  :func:`derive_seed` — a pure function of the unit, independent of
  expansion order and of which worker executes it;
* results are collected with ``Pool.imap_unordered`` -- so a
  ``progress=`` hook sees every completion the moment it happens, never
  stalled behind a slow head-of-line unit -- and then sorted back into
  unit order, so ``run_sweep(spec, jobs=4)`` returns rows identical to
  ``run_sweep(spec, jobs=1)`` (pinned by ``tests/test_sweep.py``).

Work units must be picklable: spec runners are module-level functions
taking one ``params`` dict and returning one row dict.

>>> spec = SweepSpec(
...     name="demo",
...     runner=describe_unit,
...     grid={"n": [2, 4], "kind": "demo", "seed": [7]},
... )
>>> [row["n"] for row in run_sweep(spec).rows()]
[2, 4]
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "SweepOutcome",
    "SweepReport",
    "SweepSpec",
    "SweepUnit",
    "derive_seed",
    "describe_unit",
    "expand_grid",
    "read_csv",
    "read_json",
    "run_sweep",
    "union_columns",
    "write_csv",
    "write_json",
]


def derive_seed(base_seed: int, key: Any) -> int:
    """A deterministic 32-bit seed from ``base_seed`` and a unit key.

    The key is canonicalised (mappings are sorted by key) and hashed, so
    the result is a pure function of the unit's parameters: independent
    of grid declaration order, expansion index, worker id and Python
    hash randomisation.

    >>> derive_seed(1, {"n": 8, "t": 2}) == derive_seed(1, {"t": 2, "n": 8})
    True
    >>> derive_seed(1, {"n": 8}) != derive_seed(2, {"n": 8})
    True
    """
    if isinstance(key, Mapping):
        key = tuple(sorted((str(k), repr(v)) for k, v in key.items()))
    material = repr((base_seed, key)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


def expand_grid(grid: Mapping[str, Any]) -> list[dict]:
    """Expand a declarative grid into unit-parameter dicts.

    Axes combine as a cartesian product in declaration order with the
    last axis varying fastest (row-major, like nested for-loops).  A
    scalar axis value is treated as a single-point axis, so fixed
    parameters can be declared inline.

    >>> expand_grid({"a": [1, 2], "b": "x"})
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    axes = []
    for name, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(
            values, (list, tuple, range)
        ):
            values = (values,)
        axes.append([(name, value) for value in values])
    return [dict(combo) for combo in itertools.product(*axes)]


@dataclass
class SweepUnit:
    """One independent execution of a sweep: a fully bound parameter set."""

    index: int
    experiment: str
    params: dict


@dataclass
class SweepOutcome:
    """The result of one executed :class:`SweepUnit`.

    ``started`` is a wall-clock (``time.time``) epoch stamp -- unlike
    ``perf_counter`` it is comparable across worker processes, which is
    what lets :func:`repro.obs.sweep_telemetry` place units on a shared
    timeline.  ``worker`` is the executing worker's OS pid (the parent's
    pid for inline runs); both default to zero for artifacts predating
    this field.
    """

    unit: SweepUnit
    row: dict
    elapsed: float
    started: float = 0.0
    worker: int = 0


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: what to run and over which parameter grid.

    Parameters
    ----------
    name:
        Experiment identifier, used in artifact metadata and filenames.
    runner:
        A **module-level** (picklable) function mapping one unit-params
        dict to one row dict.  Exceptions propagate and abort the sweep:
        a benchmark row is only meaningful for a correct run.
    grid:
        Declarative axes for :func:`expand_grid`.  Ignored when
        ``units`` is given.
    units:
        Explicit unit-parameter dicts for heterogeneous sweeps that a
        rectangular grid cannot express (e.g. the Theorem 13 series,
        which mixes isolation and divergence experiments).
    base_seed:
        Seed material for units that do not pin ``"seed"`` themselves;
        see :func:`derive_seed`.
    """

    name: str
    runner: Callable[[dict], dict]
    grid: Optional[Mapping[str, Any]] = None
    units: Optional[Sequence[Mapping[str, Any]]] = None
    base_seed: int = 1

    def expand(self) -> list[SweepUnit]:
        """Materialise the ordered work-unit list, seeding each unit."""
        if self.units is not None:
            param_sets = [dict(params) for params in self.units]
        elif self.grid is not None:
            param_sets = expand_grid(self.grid)
        else:
            raise ValueError(f"sweep {self.name!r} declares neither grid nor units")
        expanded = []
        for index, params in enumerate(param_sets):
            if "seed" not in params:
                params["seed"] = derive_seed(self.base_seed, params)
            expanded.append(
                SweepUnit(index=index, experiment=self.name, params=params)
            )
        return expanded


@dataclass
class SweepReport:
    """Ordered outcomes of one sweep plus artifact serialisation."""

    name: str
    outcomes: list[SweepOutcome]
    jobs: int = 1
    elapsed: float = 0.0

    def rows(self) -> list[dict]:
        """The result rows in unit order (what the text table prints)."""
        return [outcome.row for outcome in self.outcomes]

    def to_dict(self) -> dict:
        return {
            "experiment": self.name,
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed, 3),
            "units": [
                {
                    "index": outcome.unit.index,
                    "params": outcome.unit.params,
                    "row": outcome.row,
                    "elapsed_seconds": round(outcome.elapsed, 3),
                    "worker": outcome.worker,
                }
                for outcome in self.outcomes
            ],
            "workers": self.worker_stats(),
        }

    def worker_stats(self) -> dict:
        """Per-worker unit counts, busy seconds and utilization."""
        workers: dict[str, dict] = {}
        for outcome in self.outcomes:
            info = workers.setdefault(
                str(outcome.worker), {"units": 0, "busy_seconds": 0.0}
            )
            info["units"] += 1
            info["busy_seconds"] += outcome.elapsed
        wall = max(self.elapsed, 1e-9)
        for info in workers.values():
            info["busy_seconds"] = round(info["busy_seconds"], 3)
            info["utilization"] = round(info["busy_seconds"] / wall, 3)
        return dict(sorted(workers.items()))


def _execute_unit(task: tuple[Callable[[dict], dict], SweepUnit]) -> SweepOutcome:
    runner, unit = task
    wall_started = time.time()
    started = time.perf_counter()
    row = runner(dict(unit.params))
    return SweepOutcome(
        unit=unit,
        row=row,
        elapsed=time.perf_counter() - started,
        started=wall_started,
        worker=os.getpid(),
    )


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    *,
    progress: Optional[Callable[[SweepOutcome], None]] = None,
) -> SweepReport:
    """Execute every unit of ``spec`` and return the ordered report.

    ``jobs`` caps worker processes; ``jobs <= 1`` (or a single unit)
    runs inline in this process, which keeps tracebacks direct and
    avoids pool startup for trivial sweeps.  ``progress`` (e.g. a
    :class:`repro.obs.ProgressReporter`'s ``unit_done``) is called with
    each :class:`SweepOutcome` in *completion* order, as results stream
    back over the pool's result pipe; the returned report is sorted into
    unit order either way, so the hook never affects the rows (the
    determinism contract in the module docstring).
    """
    units = spec.expand()
    tasks = [(spec.runner, unit) for unit in units]
    started = time.perf_counter()
    if jobs <= 1 or len(units) <= 1:
        outcomes = []
        for task in tasks:
            outcome = _execute_unit(task)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
        used = 1
    else:
        used = min(jobs, len(units))
        with multiprocessing.get_context().Pool(used) as pool:
            outcomes = []
            for outcome in pool.imap_unordered(_execute_unit, tasks):
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
        outcomes.sort(key=lambda outcome: outcome.unit.index)
    return SweepReport(
        name=spec.name,
        outcomes=outcomes,
        jobs=used,
        elapsed=time.perf_counter() - started,
    )


def describe_unit(params: dict) -> dict:
    """A trivial sweep runner that echoes its parameters (doctest/demo)."""
    return dict(params)


# -- artifacts ---------------------------------------------------------------


def union_columns(rows: Sequence[Mapping[str, Any]]) -> list[str]:
    """All row keys, ordered by first appearance across the whole list.

    Rows produced by heterogeneous sweeps need not share a key set; a
    table or CSV header must cover the union, not just the first row.
    """
    columns: dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key)
    return list(columns)


def write_json(report: SweepReport, path: str | os.PathLike) -> None:
    """Serialise a full report (params + rows + timings) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, default=str)
        handle.write("\n")


def read_json(path: str | os.PathLike) -> dict:
    """Load a :func:`write_json` artifact back into a plain dict."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_csv(rows: Sequence[Mapping[str, Any]], path: str | os.PathLike) -> None:
    """Write result rows as CSV with a union-of-columns header."""
    columns = union_columns(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_csv(path: str | os.PathLike) -> list[dict]:
    """Load a :func:`write_csv` artifact; cell values come back as str."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return [dict(row) for row in csv.DictReader(handle)]
