"""Optimization-guided adversary search over scenario space.

The fuzzer of :mod:`repro.check.driver` samples fault scenarios
*blindly*, so its measured Table 1 ratios (worst comm/bound ≈ 0.5 over
the calibration seeds) say little about the true adversarial frontier.
This module turns the paper-bound certificate into an **objective** and
searches for the worst case:

* **move set** -- :meth:`repro.scenarios.Scenario.shrink_candidates`
  closed under its inverse :meth:`~repro.scenarios.Scenario.grow_candidates`
  (add/extend crash, omission-window, partition-window and churn events,
  crash-count capped at the instance's ``t``), so the walk moves through
  scenario space in both directions;
* **energy** -- the larger of the measured rounds-ratio
  (``rounds / round_bound``) and communication-ratio (``comm /
  comm_bound``) from :func:`repro.check.oracles.bound_certificate`,
  against a failure-free baseline of the same instance; runs that fail
  to complete score ``-1`` and are never adopted;
* **optimizer** -- simulated annealing (geometric cooling, Metropolis
  acceptance), driven exclusively by a
  :func:`~repro.bench.sweep.derive_seed`-keyed ``random.Random`` so a
  search is a pure function of ``(seed, config)``;
* **evaluation** -- :func:`repro.check.driver.run_on` on ``vec`` for
  the kernel families (when numpy is present) and ``sim-opt``
  otherwise, with every :data:`SPOT_CHECK_EVERY`-th fresh evaluation
  cross-verified on a second backend through
  :func:`~repro.check.oracles.check_parity` -- an optimizer steering by
  a buggy backend would chase phantoms.

Surfaces: ``python -m repro.check --search`` (one search per family,
top-k scenarios emitted as self-contained replayable trace artifacts
with the search trajectory in ``Trace.meta``), ``repro-bench
adversary`` (a per-``t`` sweep printing the worst-case constants
found), and the committed ``tests/corpus/``
regression corpus replayed by ``tests/test_adversary_corpus.py``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bench.sweep import SweepSpec, derive_seed
from repro.check.driver import fault_window, run_on, sample_instance, write_artifact
from repro.check.oracles import bound_certificate, check_parity
from repro.families import instance_shape
from repro.scenarios import Scenario
from repro.sim.vec import has_kernel

__all__ = [
    "SearchConfig",
    "SearchResult",
    "build_search_spec",
    "describe_search_outcome",
    "make_search_config",
    "record_search_trace",
    "run_search",
    "search_unit",
]

#: Move-set restrictions: ``all`` walks the full fault vocabulary
#: (omissions and partitions are out-of-model stressors); ``crash``
#: keeps the walk inside the paper's proven crash model -- the mode the
#: ``repro-bench adversary`` constants are measured in, so they are
#: comparable against the Table 1 claims.
MOVE_SETS = ("all", "crash")

#: The annealing schedule: the starting temperature, cooled
#: geometrically by ``COOLING`` per step.
INITIAL_TEMPERATURE = 0.04
COOLING = 0.95
#: Every ``SPOT_CHECK_EVERY``-th fresh evaluation is re-run on a second
#: backend and must match.
SPOT_CHECK_EVERY = 25
#: Grow candidates drawn per proposal.
GROW_SAMPLES = 6

#: What the walk maximizes: the rounds-ratio, the communication-ratio,
#: or the larger of the two.  ``max`` is the headline number (what the
#: acceptance gate compares against the blind fuzzer); ``comm`` is the
#: interesting *search* axis for the oblivious-schedule families, where
#: rounds are fault-insensitive but crash timing changes how much
#: probing/inquiry traffic the run pays -- under ``max`` that signal
#: would be masked by the larger, flat rounds term.
OBJECTIVES = ("rounds", "comm", "max")


@dataclass(frozen=True)
class SearchConfig:
    """One fully-bound adversary search (pure data, picklable)."""

    family: str
    recipe: dict
    seed: int
    #: scenario evaluations (the unit of cost: one protocol run each)
    budget: int = 120
    moves: str = "all"
    objective: str = "max"
    top_k: int = 3
    #: fault-event placement window (rounds), mirroring the fuzzer's
    window: int = 8
    max_rounds: int = 512
    #: cap on :meth:`Scenario.fault_budget` for grown candidates (the
    #: instance's ``t``: the search never exceeds the crash model by count)
    crash_budget: int = 1
    #: crash/churn victim pool (Byzantine pids excluded)
    victims: tuple[int, ...] = ()

    @property
    def backend(self) -> str:
        """Where evaluations run: ``vec`` where the family has a kernel
        in this install, ``sim-opt`` otherwise."""
        return "vec" if has_kernel(self.family) else "sim-opt"


def make_search_config(
    family: str,
    *,
    seed: int = 0,
    budget: int = 120,
    moves: str = "all",
    objective: str = "max",
    n: Optional[int] = None,
    t: Optional[int] = None,
    top_k: int = 3,
) -> SearchConfig:
    """Bind a search to a concrete instance of ``family``.

    The instance is drawn from :func:`repro.check.driver.sample_instance`
    -- the *same* distribution the blind fuzzer uses, so search-vs-fuzz
    comparisons are apples to apples -- with ``n``/``t`` optionally
    pinned (the per-``t`` bench sweep).  Deterministic given the
    arguments.
    """
    if moves not in MOVE_SETS:
        raise ValueError(f"unknown move set {moves!r}; choose from {MOVE_SETS}")
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    rng = random.Random(derive_seed(seed, ("repro.search", family)))
    recipe = sample_instance(family, rng, seed, n=n, t=t)
    n_, t_ = instance_shape(recipe)
    _horizon, window, max_rounds = fault_window(family, recipe)
    victims = tuple(
        p for p in range(n_) if p not in set(recipe.get("byzantine", ()))
    )
    return SearchConfig(
        family=family,
        recipe=recipe,
        seed=seed,
        budget=budget,
        moves=moves,
        objective=objective,
        top_k=top_k,
        window=window,
        max_rounds=max_rounds,
        crash_budget=t_,
        victims=victims,
    )


# -- evaluation ---------------------------------------------------------------


class _Evaluator:
    """Scenario -> energy, with caching, a failure-free baseline and
    periodic cross-backend spot verification.

    The cache is keyed by the (hashable, value-compared) scenario, so
    re-proposing a previously-visited point costs nothing; only *fresh*
    evaluations count against the budget and the spot-check cadence.
    """

    def __init__(self, config: SearchConfig):
        self.config = config
        self.cache: dict[Scenario, dict] = {}
        self.fresh = 0
        self.cache_hits = 0
        self.spot_checks = 0
        # Failure-free baseline of the same instance: the clean_rounds
        # anchor of the rounds bound, computed once on the primary.
        self.clean = self._run(config.backend, None)

    def _run(self, backend: str, scenario: Optional[Scenario]):
        return run_on(backend, self.config.recipe, scenario, self.config.max_rounds)

    def evaluate(self, scenario: Scenario) -> dict:
        """Energy and certificate for one scenario (cached)."""
        hit = self.cache.get(scenario)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.fresh += 1
        backend = self.config.backend
        result = self._run(backend, scenario)
        if self.fresh % SPOT_CHECK_EVERY == 0:
            # Cross-backend spot verification: the optimizer must not be
            # steered by a backend-specific artifact.  vec is verified
            # against sim-opt, sim-opt against the reference loop.  A
            # divergence raises OracleViolation -- loudly.
            spot_backend = "sim-opt" if backend == "vec" else "sim-ref"
            check_parity(
                result,
                self._run(spot_backend, scenario),
                f"{backend}[{self.config.family} seed={self.config.seed}]",
                spot_backend,
            )
            self.spot_checks += 1
        certificate = bound_certificate(
            self.config.family, self.config.recipe, result, clean=self.clean
        )
        rounds_ratio = (
            certificate["rounds"] / certificate["round_bound"]
            if certificate["round_bound"]
            else 0.0
        )
        # Recompute at full precision: the certificate rounds its ratio
        # to 4 decimals, which would hide the few-message gradients the
        # comm objective climbs.
        comm_ratio = (
            certificate["comm"] / certificate["comm_bound"]
            if certificate["comm_bound"]
            else 0.0
        )
        objective_value = {
            "rounds": rounds_ratio,
            "comm": comm_ratio,
            "max": max(rounds_ratio, comm_ratio),
        }[self.config.objective]
        # Incomplete runs are not measurements of the bound (the paper's
        # budgets quantify *terminating* executions); score them below
        # every completed run so the walk never adopts one.
        energy = objective_value if result.completed else -1.0
        evaluation = {
            "energy": round(energy, 6),
            "rounds_ratio": round(rounds_ratio, 6),
            "comm_ratio": round(comm_ratio, 6),
            "completed": result.completed,
            "faults": scenario.fault_budget(),
            "size": scenario.shrink_size(),
            "certificate": certificate,
        }
        self.cache[scenario] = evaluation
        return evaluation


def _propose(
    current: Scenario, config: SearchConfig, rng: random.Random
) -> Optional[Scenario]:
    """One neighbour of ``current`` under the grow+shrink move set."""
    grows = list(
        current.grow_candidates(
            max_round=config.window,
            crash_budget=config.crash_budget,
            victims=config.victims,
            rng=rng,
            samples=GROW_SAMPLES,
        )
    )
    shrinks = list(current.shrink_candidates())
    if config.moves == "crash":
        grows = [c for c in grows if not c.omissions and not c.partitions]
    pool = grows + shrinks
    if not pool:
        return None
    return pool[rng.randrange(len(pool))]


# -- the search loop ----------------------------------------------------------


@dataclass
class SearchResult:
    """Outcome of one adversary search."""

    config: SearchConfig
    #: the worst scenario found (the empty scenario when nothing beat
    #: the failure-free run)
    best_scenario: Scenario
    #: evaluation dict of ``best_scenario``
    best: dict
    #: evaluation of the empty (failure-free) starting scenario
    baseline: dict
    #: per-step records: proposal energy, acceptance, running best
    trajectory: list[dict] = field(default_factory=list)
    #: top-k distinct scenarios by energy (first-found wins ties)
    top: list[dict] = field(default_factory=list)
    evaluations: int = 0
    cache_hits: int = 0
    spot_checks: int = 0

    def to_row(self) -> dict:
        """Flatten into a JSON-safe sweep row (byte-identical across
        ``--jobs`` counts: everything downstream -- artifacts included --
        derives from this row, never from worker-local state)."""
        n, t = instance_shape(self.config.recipe)
        return {
            "family": self.config.family,
            "n": n,
            "t": t,
            "method": "anneal",
            "backend": self.config.backend,
            "moves": self.config.moves,
            "objective": self.config.objective,
            "seed": self.config.seed,
            "budget": self.config.budget,
            "best_energy": self.best["energy"],
            "best_rounds_ratio": self.best["rounds_ratio"],
            "best_comm_ratio": self.best["comm_ratio"],
            "baseline_energy": self.baseline["energy"],
            "gain": round(self.best["energy"] - self.baseline["energy"], 6),
            "faults": self.best["faults"],
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "spot_checks": self.spot_checks,
            "recipe": self.config.recipe,
            "best_scenario": self.best_scenario.to_dict(),
            "best_certificate": self.best["certificate"],
            "top": self.top,
            "trajectory": self.trajectory,
        }


def run_search(config: SearchConfig) -> SearchResult:
    """Walk scenario space for ``config.budget`` evaluations.

    Deterministic: all randomness comes from one ``random.Random``
    derived from ``(config.seed, family, "anneal")``; protocol runs are
    deterministic state machines, so the whole search -- trajectory,
    best scenario, top-k list -- is a pure function of the config.
    """
    evaluator = _Evaluator(config)
    rng = random.Random(
        derive_seed(config.seed, ("repro.search", config.family, "anneal"))
    )
    n, _ = instance_shape(config.recipe)
    empty = Scenario(n=n, name=f"search-{config.family}-{config.seed}")
    baseline = evaluator.evaluate(empty)

    current, current_eval = empty, baseline
    best, best_eval = empty, baseline
    # Scenario -> (energy, first step seen); distinct-by-value top-k.
    seen_at: dict[Scenario, tuple[float, int]] = {empty: (baseline["energy"], 0)}
    trajectory: list[dict] = []
    temperature = INITIAL_TEMPERATURE

    for step in range(1, config.budget + 1):
        candidate = _propose(current, config, rng)
        if candidate is None:
            continue
        evaluation = evaluator.evaluate(candidate)
        energy = evaluation["energy"]
        if candidate not in seen_at:
            seen_at[candidate] = (energy, step)
        delta = energy - current_eval["energy"]
        accepted = delta >= 0 or (
            evaluation["completed"]
            and rng.random() < math.exp(delta / max(temperature, 1e-9))
        )
        temperature *= COOLING
        if accepted:
            current, current_eval = candidate, evaluation
            if energy > best_eval["energy"]:
                best, best_eval = candidate, evaluation
        trajectory.append(
            {
                "step": step,
                "energy": energy,
                "accepted": accepted,
                "best": best_eval["energy"],
                "size": evaluation["size"],
                "faults": evaluation["faults"],
            }
        )

    ranked = sorted(
        seen_at.items(), key=lambda item: (-item[1][0], item[1][1])
    )[: config.top_k]
    top = [
        {
            "rank": rank,
            "energy": energy,
            "step": first_step,
            "scenario": scenario.to_dict(),
            "evaluation": {
                k: v
                for k, v in evaluator.cache.get(scenario, baseline).items()
                if k != "certificate"
            },
            "certificate": evaluator.cache.get(scenario, baseline)["certificate"],
        }
        for rank, (scenario, (energy, first_step)) in enumerate(ranked, start=1)
    ]
    return SearchResult(
        config=config,
        best_scenario=best,
        best=best_eval,
        baseline=baseline,
        trajectory=trajectory,
        top=top,
        evaluations=evaluator.fresh,
        cache_hits=evaluator.cache_hits,
        spot_checks=evaluator.spot_checks,
    )


# -- sweep plumbing (CLI / repro-bench) ---------------------------------------


def search_unit(params: dict) -> dict:
    """Sweep-runner form of :func:`run_search` (module-level, picklable).

    ``params`` binds ``family`` and ``search_seed`` plus the optional
    knobs of :func:`make_search_config`; the row carries everything the
    parent needs (top-k scenarios included), so artifact emission happens
    in the parent process in row order -- ``--jobs`` can never change
    the bytes written.
    """
    config = make_search_config(
        params["family"],
        seed=params["search_seed"],
        budget=params["budget"],
        moves=params.get("moves") or "all",
        objective=params.get("objective") or "max",
        n=params.get("n"),
        t=params.get("t"),
        top_k=params.get("top_k") or 3,
    )
    return run_search(config).to_row()


def build_search_spec(
    seed: int,
    budget: int,
    *,
    families: Sequence[str],
    moves: str = "all",
    objective: str = "max",
    n: Optional[int] = None,
    t: Optional[int] = None,
    top_k: int = 3,
) -> SweepSpec:
    """One adversary search per family, as a :class:`SweepSpec`.

    The single unit-shape definition shared by ``python -m repro.check
    --search`` and the ``repro-bench adversary`` series.
    """
    units = [
        {
            "family": family,
            "search_seed": seed,
            "seed": seed,
            "budget": budget,
            "moves": moves,
            "objective": objective,
            "n": n,
            "t": t,
            "top_k": top_k,
        }
        for family in families
    ]
    return SweepSpec(name="search", runner=search_unit, units=units, base_seed=seed)


def describe_search_outcome(outcome) -> str:
    """Progress-line phrase for one completed search unit."""
    row = getattr(outcome, "row", None) or {}
    params = getattr(getattr(outcome, "unit", None), "params", None) or {}
    family = row.get("family", params.get("family", "?"))
    bits = [str(family)]
    if "best_energy" in row:
        bits.append(f"best {row['best_energy']:.3f}")
        bits.append(f"(baseline {row['baseline_energy']:.3f})")
    return " ".join(bits)


# -- artifacts ----------------------------------------------------------------


def record_search_trace(
    row: dict,
    entry: dict,
    out_dir: str | os.PathLike,
) -> str:
    """Write one top-k scenario as a self-contained replayable trace.

    ``row`` is a :meth:`SearchResult.to_row` dict, ``entry`` one of its
    ``top`` items.  The scenario goes through
    :func:`repro.check.driver.write_artifact` (recorded on sim-opt: the
    kernel backends share its fault semantics bit-for-bit, and a trace
    needs the engine's recording hooks) with
    ``Trace.meta["repro.search"]`` carrying the certificate, the search
    trajectory and the exact reproduction commands.
    ``repro.trace.replay_trace(path)`` reproduces the run standalone;
    ``tests/test_adversary_corpus.py`` replays the committed corpus on
    every test run.
    """
    name = f"search-{row['family']}-seed{row['seed']}-rank{entry['rank']}"
    cli = (
        f"python -m repro.check --search --seed {row['seed']} "
        f"--budget {row['budget']} --families {row['family']} "
        f"--moves {row['moves']} "
        f"--objective {row.get('objective', 'max')}"
    )
    meta = {
        "repro.search": {
            "family": row["family"],
            "seed": row["seed"],
            "budget": row["budget"],
            "method": row["method"],
            "moves": row["moves"],
            "objective": row.get("objective", "max"),
            "rank": entry["rank"],
            "energy": entry["energy"],
            "evaluation": entry["evaluation"],
            "certificate": entry["certificate"],
            "scenario": entry["scenario"],
            "baseline_energy": row["baseline_energy"],
            "trajectory": row.get("trajectory", []),
            "reproduce": {
                "cli": cli,
                "replay": (
                    "python -c \"from repro import replay_trace; "
                    f"replay_trace('{name}.trace.json')\""
                ),
            },
        }
    }
    return write_artifact(
        row["recipe"],
        Scenario.from_dict(entry["scenario"]),
        fault_window(row["family"], row["recipe"])[2],
        out_dir,
        name,
        meta,
    )
