"""Deterministic sampling and differential execution of fuzz configs.

One **fuzz configuration** is ``(protocol family, instance parameters,
seeded random Scenario, backend set)``, sampled as a pure function of
``(seed, index)`` -- re-running with the same seed replays the exact
same configurations, which is what makes a nightly fuzz failure
reproducible from its printed index alone.

Differential execution re-uses the trace machinery instead of
re-implementing comparison: the primary run executes on the optimized
engine with a :class:`repro.trace.TraceRecorder` attached, and every
other backend (reference engine, asyncio runtime over memory or TCP)
**replays the trace with verification** -- so a cross-backend
divergence is reported as the first differing event
(:class:`repro.trace.TraceDivergence`), not as a boolean.  The
recorded primary executes exactly what an un-recorded run executes
plus the recorder's hook calls, so it *is* the run a user makes.  The
oracles of :mod:`repro.check.oracles` then run on the primary result.

Every checker runs an instance through :func:`run_on` (a backend named
as in :data:`repro.api.BACKENDS`) and saves one as an artifact through
:func:`write_artifact`.

``fuzz_unit`` is the module-level (picklable) sweep runner: the
``repro-bench fuzz`` series and the ``python -m repro.check`` CLI both
fan configurations out through the sweep scheduler
(:mod:`repro.bench.sweep`), so ``--jobs`` parallelism never changes a
row.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import api
from repro.api import BACKENDS
from repro.bench.sweep import SweepSpec, derive_seed
from repro.check.oracles import (
    OracleViolation,
    check_parity,
    in_crash_model,
    run_oracles,
)
from repro.core.params import ProtocolParams
from repro.families import REGISTRY, by_family, instance_shape
from repro.scenarios import Scenario, scenario_schedule
from repro.sim.vec import has_kernel
from repro.trace import TraceDivergence, replay_trace

__all__ = [
    "FAMILIES",
    "FuzzConfig",
    "build_fuzz_spec",
    "describe_fuzz_outcome",
    "fuzz_unit",
    "run_config",
    "run_on",
    "sample_config",
    "sample_instance",
    "write_artifact",
]

#: Every protocol family the driver covers, in registry order;
#: ``sample_config`` cycles through them by index, so any contiguous
#: index range covers all.
FAMILIES = tuple(family.family for family in REGISTRY)

#: Default replay backends for differential comparison; ``tcp`` joins
#: behind the CLI's ``--tcp`` flag (slow: real sockets per config).
DEFAULT_BACKENDS = ("sim-ref", "net")

#: Scenario kinds and their sampling weights (cumulative thresholds).
_KIND_WEIGHTS = (
    ("none", 0.15),
    ("crash", 0.50),
    ("omission", 0.62),
    ("partition", 0.74),
    ("churn", 0.87),
    ("mixed", 1.0),
)


@dataclass(frozen=True)
class FuzzConfig:
    """One fully-bound fuzz configuration (pure data)."""

    index: int
    seed: int
    family: str
    recipe: dict
    scenario: Optional[Scenario]
    kind: str
    max_rounds: int
    backends: tuple[str, ...] = DEFAULT_BACKENDS
    #: force the safety oracle on/off regardless of the in-model gate
    #: (``None`` = gate normally); the deliberate-fault tests arm it
    #: for out-of-model scenarios to exercise the catch->shrink->replay
    #: pipeline end to end
    include_safety: Optional[bool] = None


def sample_instance(
    family: str,
    rng: random.Random,
    seed: int,
    *,
    n: Optional[int] = None,
    t: Optional[int] = None,
) -> dict:
    """A random JSON-safe protocol recipe for ``family``.

    The single instance distribution shared by the blind fuzzer
    (:func:`sample_config`) and the adversary search
    (:mod:`repro.check.search`), so "a random instance of family X"
    means the same thing to both.  With ``n``/``t`` ``None`` the shape
    is drawn from ``rng`` exactly as the fuzzer always has (the
    pin test in ``tests/test_search.py`` freezes that stream); passing
    either pins it instead -- the search's per-``t`` sweeps use this to
    hold the instance fixed while only the scenario varies.
    """
    record = by_family(family)
    size = n if n is not None else rng.randrange(*record.n_range)
    bound = t if t is not None else rng.randrange(1, record.t_cap(size))
    return {"name": record.recipe, **record.sample(rng, seed, size, bound)}


def fault_window(family: str, recipe: dict) -> tuple[int, int, int]:
    """``(horizon, event window, max_rounds)`` for fuzzing or searching
    one instance: the family's fault horizon, the rounds fault events
    are placed in, and the run's round bound."""
    n, t = instance_shape(recipe)
    params = ProtocolParams(n=n, t=t, seed=recipe.get("overlay_seed", 0))
    horizon = by_family(family).fault_horizon(params)
    # Generous but *bounded* safety net: a run that fails to quiesce
    # (e.g. a churn node rejoined past its protocol's schedule) burns
    # a few hundred rounds and reports completed=False instead of
    # stalling the fuzzer at an engine-default six-figure bound.
    return horizon, max(4, min(horizon, 24)), 4 * horizon + 4 * n + 64


def _sample_scenario(
    family: str,
    recipe: dict,
    rng: random.Random,
    window: int,
    name: str,
) -> tuple[str, Optional[Scenario]]:
    n, t = instance_shape(recipe)
    draw = rng.random()
    kind = next(label for label, ceiling in _KIND_WEIGHTS if draw < ceiling)
    if kind == "none":
        return kind, None
    # Crash/churn victims must avoid the Byzantine set (the substrates
    # reject an adversary crashing a Byzantine node).
    victims = [p for p in range(n) if p not in set(recipe.get("byzantine", ()))]
    counts = {
        "crash": dict(crashes=rng.randrange(1, t + 1)),
        "omission": dict(omission_links=rng.randrange(1, 2 * n)),
        "partition": dict(partition_windows=rng.randrange(1, 3)),
        "churn": dict(churn_nodes=rng.randrange(1, min(max(t, 1), 3) + 1)),
        "mixed": dict(
            crashes=rng.randrange(0, max(1, t // 2) + 1),
            omission_links=rng.randrange(1, n),
            partition_windows=rng.randrange(0, 2),
            churn_nodes=rng.randrange(0, min(max(t, 1), 2) + 1),
        ),
    }[kind]
    scenario = scenario_schedule(
        n, rng=rng, max_round=window, victims=victims, name=name, **counts
    )
    return kind, scenario


def sample_config(
    seed: int,
    index: int,
    *,
    families: Sequence[str] = FAMILIES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> FuzzConfig:
    """The ``index``-th fuzz configuration of a ``seed``-keyed series.

    A pure function of its arguments (randomness comes from a
    ``random.Random`` seeded via :func:`repro.bench.sweep.derive_seed`;
    the module-level ``random`` state is never touched).  Families cycle
    by index so every budget ≥ ``len(families)`` covers all of them.
    """
    rng = random.Random(derive_seed(seed, ("repro.check", index)))
    family = families[index % len(families)]
    recipe = sample_instance(family, rng, seed)
    _horizon, window, max_rounds = fault_window(family, recipe)
    kind, scenario = _sample_scenario(
        family, recipe, rng, window, name=f"fuzz-{seed}-{index}"
    )
    backends = tuple(backends)
    if backends == DEFAULT_BACKENDS and has_kernel(family):
        # Kernel families additionally run on the vectorized backend and
        # must match the primary run on the full parity surface.
        backends = backends + ("vec",)
    return FuzzConfig(
        index=index,
        seed=seed,
        family=family,
        recipe=recipe,
        scenario=scenario,
        kind=kind,
        max_rounds=max_rounds,
        backends=backends,
    )


# -- differential execution ---------------------------------------------------


def run_on(
    backend: str, recipe: dict, scenario: Optional[Scenario], max_rounds: int, **extra
):
    """Run one instance for checking on ``backend`` (a
    :data:`repro.api.BACKENDS` name): failure-free unless ``scenario``
    has an event, bounded by ``max_rounds``.  ``extra`` is passed on to
    :func:`repro.api.run_recipe` (``record_trace=True``)."""
    if scenario is not None and scenario.shrink_size() > 0:
        extra["scenario"] = scenario
    return api.run_recipe(
        recipe, crashes=None, max_rounds=max_rounds, **BACKENDS[backend], **extra
    )


def write_artifact(
    recipe: dict,
    scenario: Optional[Scenario],
    max_rounds: int,
    out_dir: str | os.PathLike,
    name: str,
    meta: dict,
) -> str:
    """Save one instance as a self-contained trace artifact.

    Re-runs it recorded on sim-opt, stores ``meta`` as ``Trace.meta``
    and writes ``<out_dir>/<name>.trace.json`` -- recipe, scenario and
    meta embedded, so ``repro.trace.replay_trace(path)`` reproduces the
    run anywhere.  When ``$REPRO_CHECK_ARTIFACT_DIR`` names another
    directory (the one CI uploads), the same bytes are written there
    too.  Returns the path under ``out_dir``.
    """
    trace = run_on("sim-opt", recipe, scenario, max_rounds, record_trace=True).trace
    trace.meta = meta
    filename = f"{name}.trace.json"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(os.fspath(out_dir), filename)
    trace.save(path)
    mirror = os.environ.get("REPRO_CHECK_ARTIFACT_DIR")
    if mirror and os.path.abspath(mirror) != os.path.abspath(out_dir):
        os.makedirs(mirror, exist_ok=True)
        trace.save(os.path.join(mirror, filename))
    return path


def run_config(config: FuzzConfig) -> dict:
    """Execute one configuration differentially and run every oracle.

    Returns a JSON-safe report row: the instance shape, the primary
    run's headline metrics, the violated oracles (empty when clean) and
    the paper-bound certificate when one armed.  Never raises on a
    violation -- violations are data, so a sweep over many
    configurations completes and reports them all.
    """
    instance = (config.recipe, config.scenario, config.max_rounds)
    primary = run_on("sim-opt", *instance, record_trace=True)
    trace = primary.trace
    violations: list[dict] = []
    for backend in config.backends:
        try:
            if backend == "vec":
                # A recorder forces vec's engine fallback, so a replay
                # would never reach the kernels: run them independently
                # (the fault schedule is pure data) and compare the full
                # parity surface.
                check_parity(primary, run_on("vec", *instance), "sim-opt", "vec")
            else:
                replay_trace(trace, **BACKENDS[backend])
        except (TraceDivergence, OracleViolation) as exc:
            violations.append(
                {"oracle": f"parity:{backend}", "detail": str(exc)}
            )

    clean = None
    if (
        config.scenario is not None
        and config.scenario.crashes
        and in_crash_model(config.recipe, config.scenario)
    ):
        # Failure-free baseline of the same instance, for the
        # rounds-within-O(t) certificate.
        clean = run_on("sim-opt", config.recipe, None, config.max_rounds)
    oracle_violations, certificate = run_oracles(
        config.family,
        config.recipe,
        primary,
        scenario=config.scenario,
        trace=trace,
        clean=clean,
        max_rounds=config.max_rounds,
        include_safety=config.include_safety,
    )
    violations.extend(oracle_violations)

    n, t = instance_shape(config.recipe)
    row = {
        "index": config.index,
        "family": config.family,
        "n": n,
        "t": t,
        "kind": config.kind,
        "faults": config.scenario.fault_budget() if config.scenario else 0,
        "rounds": primary.rounds,
        "messages": primary.messages,
        "bits": primary.bits,
        "dropped": primary.metrics.dropped_messages,
        "completed": primary.completed,
        "in_model": in_crash_model(config.recipe, config.scenario),
        "violations": len(violations),
        "oracles": ";".join(v["oracle"] for v in violations),
    }
    if violations:
        row["violation_details"] = violations
    if certificate is not None:
        row["comm_ratio"] = certificate["comm_ratio"]
        # Compact certificate column for tables/CSV; the full dict is in
        # the violation detail whenever the bound oracle fires.
        row["certificate"] = (
            f"rounds {certificate['rounds']}<={certificate['round_bound']}, "
            f"{certificate['comm_measure']} {certificate['comm']}"
            f"<={certificate['constant']:g}x{certificate['envelope']:g}"
        )
    return row


def fuzz_unit(params: dict) -> dict:
    """Sweep-runner form of :func:`run_config` (module-level, picklable).

    ``params`` binds ``fuzz_seed`` and ``index`` plus optional
    comma-joined ``families`` and ``backends`` overrides -- the unit
    shape used by the ``repro-bench fuzz`` series and the CLI.
    """
    families = tuple(
        f for f in (params.get("families") or "").split(",") if f
    ) or FAMILIES
    backends = tuple(
        b for b in (params.get("backends") or "").split(",") if b
    ) or DEFAULT_BACKENDS
    config = sample_config(
        params["fuzz_seed"],
        params["index"],
        families=families,
        backends=backends,
    )
    return run_config(config)


def describe_fuzz_outcome(outcome) -> str:
    """Progress-line phrase for one completed fuzz unit.

    Fed to :class:`repro.obs.ProgressReporter` by the CLI; the generic
    describer would print the series seed (identical for every unit),
    whereas triage wants the configuration index and what it sampled::

        repro.check: 120/200 units, 14.3/s, eta 6s, ... last #119 gossip/churn
    """
    row = getattr(outcome, "row", None) or {}
    params = getattr(getattr(outcome, "unit", None), "params", None) or {}
    bits = [f"#{row.get('index', params.get('index', '?'))}"]
    family = row.get("family")
    if family:
        kind = row.get("kind")
        bits.append(f"{family}/{kind}" if kind else str(family))
    if row.get("violations"):
        bits.append(f"VIOLATIONS={row['violations']}")
    return " ".join(bits)


def build_fuzz_spec(
    seed: int,
    budget: int,
    *,
    families: str = "",
    backends: str = "",
    indices=None,
) -> SweepSpec:
    """The fuzz series as a :class:`~repro.bench.sweep.SweepSpec`.

    The single definition of the fuzz unit shape, shared by the
    ``python -m repro.check`` CLI and the ``repro-bench fuzz`` series so
    their rows can never diverge for the same seed.  ``families`` /
    ``backends`` are comma-joined overrides (empty = defaults);
    ``indices`` restricts to explicit configuration indices (the CLI's
    ``--only`` path) instead of ``range(budget)``.
    """
    index_range = list(indices) if indices is not None else list(range(budget))
    units = [
        {
            "index": index,
            "fuzz_seed": seed,
            "seed": seed,
            "families": families,
            "backends": backends,
        }
        for index in index_range
    ]
    return SweepSpec(name="fuzz", runner=fuzz_unit, units=units, base_seed=seed)
