"""Per-experiment measurement series (the tables ``repro-bench`` prints;
README, "Benchmarks and sweeps").

Each experiment is expressed as a :class:`~repro.bench.sweep.SweepSpec`:
a declarative parameter grid plus a module-level *unit runner* mapping
one fully-bound parameter dict to one row dict.  The ``*_spec``
builders are the public surface (:mod:`repro.bench.runner` names them
by experiment id); ``run_sweep(<x>_spec(...), jobs=jobs).rows()``
executes one through the sweep scheduler — serially by default, or
across cores with ``jobs > 1`` — so every table can be regenerated in
parallel without changing a single row.

Every unit validates its execution against the family's correctness
predicate (a benchmark number is only reported for a *correct* run).
The theorem series (Table 1, e5–e11) share :func:`theorem_unit`, which
divides the :class:`~repro.families.Family` record's measure by the
record's ``envelope`` -- the fields the fuzzer's bound certificate reads
-- so a theorem holds if ``<measure>/envelope`` stays under the
``constant`` printed beside it as the sweep grows.

Rows are byte-identical across runs and ``--jobs`` counts, with one
documented exception: the ``net`` series' ``sim_ms``/``net_ms``/
``net/sim`` columns are wall-clock measurements (its remaining columns
stay deterministic; see :func:`net_unit`).
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import Optional

from repro import check_consensus, run_recipe
from repro.api import BACKENDS
from repro.baselines import (
    FloodingConsensusProcess,
    NaiveCheckpointingProcess,
    NaiveGossipProcess,
)
from repro.baselines.ring_gossip import RingGossipProcess
from repro.bench.sweep import SweepSpec, derive_seed
from repro.bench.workloads import byzantine_sample, input_vector, rumor_vector, table1_fault_bound
from repro.check.driver import build_fuzz_spec
from repro.check.oracles import check_parity
from repro.check.search import search_unit
from repro.core.params import ProtocolParams
from repro.families import Family, by_family, by_recipe
from repro.lowerbounds import divergence_series, isolation_report
from repro.sim import Engine, crash_schedule
from repro.singleport.linear_consensus import (
    LinearConsensusProcess,
    linear_consensus_schedule,
)

__all__ = [
    "adversary_spec",
    "aea_spec",
    "baselines_spec",
    "byzantine_spec",
    "checkpointing_spec",
    "consensus_few_spec",
    "consensus_many_spec",
    "families_spec",
    "fuzz_spec",
    "gossip_spec",
    "lowerbounds_spec",
    "net_spec",
    "scenarios_spec",
    "scv_spec",
    "singleport_spec",
    "smoke_spec",
    "table1_spec",
    "theorem_unit",
]

#: The seed every model series draws its instances from (the fuzz and
#: adversary series search from seed 0).
SEED = 1


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


# -- The theorem unit: draw, run, validate, divide by the record's envelope ------


def _record(name: str) -> Family:
    """A series names its record by family or -- ``consensus`` with the
    algorithm left to ``auto`` -- by recipe (records that share a recipe
    agree on its schema and predicate)."""
    try:
        return by_family(name)
    except ValueError:
        return by_recipe(name)


def _standard_recipe(record: Family, params: dict) -> dict:
    """The standard instance of a family as a recipe: every key of the
    record's schema that ``params`` binds (``n``, ``t``, whatever the
    series pins) taken from there, the rest of its required keys -- and
    the Byzantine set where the fault budget is one -- drawn from
    :mod:`repro.bench.workloads` with the unit's seed."""
    n, t, seed = params["n"], params["t"], params["seed"]
    draw = {
        "inputs": lambda: input_vector(n, "random", seed),
        "rumors": lambda: rumor_vector(n, seed),
        "holders": lambda: sorted(random.Random(seed).sample(range(n), int(0.62 * n))),
        "byzantine": lambda: byzantine_sample(n, t, seed),
    }
    recipe = {"name": record.recipe}
    for key in (*record.required, *record.optional):
        if key in params:
            recipe[key] = params[key]
        elif key in draw:
            recipe[key] = draw[key]()
    return recipe


def _run_checked(params: dict, **execution):
    """Draw, execute and validate the instance ``params`` binds
    (``family``, ``n``, ``t``, ``seed`` plus any recipe key it pins);
    returns ``(record, recipe, result)`` of a *correct* run."""
    record = _record(params["family"])
    recipe = _standard_recipe(record, params)
    result = run_recipe(recipe, **execution)
    record.safety(recipe, result)
    return record, recipe, result


def _theorem_run(params: dict):
    """``(row, recipe, result)`` of one theorem unit; the series that
    observe more than the common row add columns to it."""
    record, recipe, result = _run_checked(params, crashes="random", seed=params["seed"])
    n, t = params["n"], params["t"]
    measure, constant = record.bound
    envelope = record.envelope(ProtocolParams(n=n, t=t), recipe)
    row = {
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "messages": result.messages,
        "bits": result.bits,
        "rounds/(t+lg n)": round(result.rounds / (t + _log2(n)), 2),
        f"{measure}/envelope": round(getattr(result, measure) / envelope, 3),
        "constant": constant,
    }
    return row, recipe, result


def theorem_unit(params: dict) -> dict:
    """One theorem row: ``params`` binds ``family``, ``n``, ``t``,
    ``seed`` (and any recipe key the series pins, e.g. ``algorithm``).
    Runs the family's standard instance under random crashes, raises
    unless the record's ``safety`` holds, and reports the model costs
    with ``<measure>/envelope`` and ``constant`` read off the record."""
    return _theorem_run(params)[0]


def _theorem_spec(name, family, shapes, runner=theorem_unit, **pins) -> SweepSpec:
    """A theorem series: one unit per ``(n, t)`` shape of one family
    (explicit units, since ``t`` is usually a function of ``n``)."""
    units = [
        {"family": family, "n": n, "t": t, "seed": SEED, **pins} for n, t in shapes
    ]
    return SweepSpec(name=name, runner=runner, units=units, base_seed=SEED)


# -- Table 1 ----------------------------------------------------------------

#: Table 1's rows: problem (its ``table1_fault_bound`` rule) -> (row
#: label, family).  Crash consensus sits at t = Θ(n / log n) < n/5, the
#: Few-Crashes range.
TABLE1_ROWS = {
    "consensus": ("crash/consensus", "consensus-few"),
    "gossip": ("crash/gossip", "gossip"),
    "checkpointing": ("crash/checkpointing", "checkpointing"),
    "byzantine": ("auth-byz/consensus", "ab-consensus"),
}


def table1_unit(params: dict) -> dict:
    """One Table 1 cell: ``params`` binds ``problem``, ``n`` and ``seed``.
    Rows differ in measure (bits for consensus, messages elsewhere), so
    the row's own one is restated as ``comm``."""
    problem, n = params["problem"], params["n"]
    t = table1_fault_bound(problem, n)  # ValueError on an unknown problem
    label, family = TABLE1_ROWS[problem]
    row = theorem_unit({"family": family, "n": n, "t": t, "seed": params["seed"]})
    measure = by_family(family).bound[0]
    comm, ratio, constant = row[measure], row.pop(f"{measure}/envelope"), row.pop("constant")
    return {
        "row": label,
        **row,
        "comm": comm,
        "comm/n": round(comm / n, 1),
        "comm/envelope": ratio,
        "constant": constant,
    }


def table1_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    """Table 1: with ``t`` pinned at each row's optimality boundary,
    both ``rounds/(t + lg n)`` and ``comm/n`` must stay bounded as
    ``n`` grows."""
    ns = ns or [128, 256, 512]
    return SweepSpec(
        name="table1",
        runner=table1_unit,
        grid={"problem": list(TABLE1_ROWS), "n": ns, "seed": [SEED]},
        base_seed=SEED,
    )


def smoke_spec() -> SweepSpec:
    """A seconds-scale slice of the Table 1 grid, for profiling smoke runs.

    ``repro-bench profile smoke`` is what the CI observability job runs:
    one unit per Table 1 problem at ``n = 48`` -- enough work to
    produce a non-trivial multi-unit timeline and exercise the telemetry
    exporters, small enough to finish in seconds.
    """
    return dataclasses.replace(table1_spec([48]), name="smoke")



# -- E5: Theorem 5 (AEA) -------------------------------------------------------


def aea_unit(params: dict) -> dict:
    row, _, result = _theorem_run(params)
    deciders = len(result.correct_decisions()) + len(result.crashed)
    return {**row, "deciders/n": round(deciders / row["n"], 3)}


def aea_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    ns = ns or [120, 240, 480]
    return _theorem_spec("e5", "aea", [(n, n // 6) for n in ns], aea_unit)



# -- E6: Theorem 6 (SCV) -------------------------------------------------------


def scv_unit(params: dict) -> dict:
    row = theorem_unit(params)
    direct = ProtocolParams(n=row["n"], t=row["t"]).scv_direct_inquiry
    return {
        **row,
        "branch": "direct(t²≤n)" if direct else "doubling",
        "rounds/lg t": round(row["rounds"] / _log2(row["t"]), 2),
    }


def scv_spec(n: int = 400) -> SweepSpec:
    # spans the t² ≤ n crossover at t = √n
    shapes = [(n, t) for t in (10, 19, 21, 40, 79)]
    return _theorem_spec("e6", "scv", shapes, scv_unit)



# -- E7: Theorem 7 (Few-Crashes-Consensus) ----------------------------------------


def consensus_few_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    ns = ns or [120, 240, 480]
    shapes = [(n, n // 6) for n in ns]
    return _theorem_spec("e7", "consensus-few", shapes, algorithm="few")



# -- E8: Theorem 8 / Corollary 1 (Many-Crashes-Consensus) ---------------------------


def consensus_many_unit(params: dict) -> dict:
    row = theorem_unit(params)
    n, t = row["n"], row["t"]
    base_bound = n + 3 * (1 + _log2(n)) + 7
    # Degenerate fault patterns (α → 1 with no probing survivor)
    # trigger the recovery epilogue, adding at most t + 2 rounds (the
    # HELP round and flood ManyCrashesConsensusProcess.__init__ lays out).
    recovery_used = row["rounds"] > base_bound
    round_bound = base_bound + (t + 2 if recovery_used else 0)
    return {
        **row,
        "alpha": round(t / n, 2),
        "round_bound(n+3(1+lg n))": int(round_bound),
        "recovery": "yes" if recovery_used else "no",
        "rounds/bound": round(row["rounds"] / round_bound, 2),
    }


def consensus_many_spec(n: int = 96) -> SweepSpec:
    shapes = [(n, min(n - 1, max(1, n * pct // 100))) for pct in (30, 60, 90, 98)]
    return _theorem_spec(
        "e8", "consensus-many", shapes, consensus_many_unit, algorithm="many"
    )



# -- E9: Theorem 9 (Gossip) -----------------------------------------------------


def gossip_unit(params: dict) -> dict:
    row = theorem_unit(params)
    polylog = _log2(row["n"]) * _log2(row["t"])
    return {**row, "rounds/(lg n·lg t)": round(row["rounds"] / polylog, 2)}


def gossip_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    ns = ns or [120, 240, 480]
    return _theorem_spec("e9", "gossip", [(n, n // 10) for n in ns], gossip_unit)



# -- The classical comparators (e10 and ``baselines``) ------------------------------

#: family -> (label, process ``pid`` of the instance ``(n, t, recipe)``,
#: last round its crash schedule may use).
_BASELINES = {
    "consensus-few": (
        "flooding (t+1 rounds, all-to-all)",
        lambda pid, n, t, recipe: FloodingConsensusProcess(pid, n, t, recipe["inputs"][pid]),
        lambda t: t + 1,
    ),
    "gossip": (
        "all-to-all exchange",
        lambda pid, n, t, recipe: NaiveGossipProcess(pid, n, recipe["rumors"][pid]),
        lambda t: 2,
    ),
    "checkpointing": (
        "ping + mask AND-flooding (n²t)",
        lambda pid, n, t, recipe: NaiveCheckpointingProcess(pid, n, t),
        lambda t: t + 2,
    ),
}


def _baseline_run(params: dict, recipe: dict):
    """``(label, result)`` of the family's classical baseline on the same
    instance and crash seed, validated by the same predicate."""
    record = by_family(params["family"])
    label, process, horizon = _BASELINES[record.family]
    n, t = params["n"], params["t"]
    adversary = crash_schedule(n, t, seed=params["seed"], max_round=horizon(t))
    result = Engine([process(pid, n, t, recipe) for pid in range(n)], adversary).run()
    record.safety(recipe, result)
    return label, result


# -- E10: Theorem 10 (Checkpointing) -----------------------------------------------


def checkpointing_unit(params: dict) -> dict:
    row, recipe, _ = _theorem_run(params)
    _, naive = _baseline_run(params, recipe)
    round_bound = row["t"] + _log2(row["n"]) * _log2(row["t"])
    return {
        **row,
        "naive_msgs(n²t)": naive.messages,
        "msg_ratio(naive/paper)": round(naive.messages / row["messages"], 2),
        "rounds/(t+lgn·lgt)": round(row["rounds"] / round_bound, 2),
    }


def checkpointing_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    ns = ns or [100, 200, 400]
    shapes = [(n, n // 10) for n in ns]
    return _theorem_spec("e10", "checkpointing", shapes, checkpointing_unit)



# -- E11: Theorem 11 (AB-Consensus) --------------------------------------------------


def byzantine_unit(params: dict) -> dict:
    row = theorem_unit(params)
    n, t = row["n"], row["t"]
    return {**row, "t²/n": round(t * t / n, 2), "msgs/n": round(row["messages"] / n, 2)}


def byzantine_spec(n: int = 400) -> SweepSpec:
    # √n = 20: the linear-communication crossover
    shapes = [(n, t) for t in (5, 10, 20, 40)]
    return _theorem_spec("e11", "ab-consensus", shapes, byzantine_unit)



# -- E12: Theorem 12 (single-port Linear-Consensus) ------------------------------------


def singleport_unit(params: dict) -> dict:
    n, seed = params["n"], params["seed"]
    t = n // 8
    pp = ProtocolParams(n=n, t=t, seed=3)
    schedule, shared = linear_consensus_schedule(pp)
    inputs = input_vector(n, "random", seed)
    processes = [
        LinearConsensusProcess(pid, pp, inputs[pid], schedule=schedule, shared=shared)
        for pid in range(n)
    ]
    adversary = crash_schedule(n, t, seed=seed, max_round=schedule.end)
    result = Engine(processes, adversary, max_rounds=schedule.end).run()
    check_consensus(result, inputs)
    return {
        "n": n,
        "t": t,
        "sp_rounds": result.rounds,
        "messages": result.messages,
        "bits": result.bits,
        "rounds/(t+lg n)": round(result.rounds / (t + _log2(n)), 1),
        "bits/(n+t·lg n·d)": round(result.bits / (n + 32 * t * _log2(n)), 2),
    }


def singleport_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    ns = ns or [60, 120, 240]
    return SweepSpec(
        name="e12",
        runner=singleport_unit,
        grid={"n": ns, "seed": [SEED]},
        base_seed=SEED,
    )



# -- E13: Theorem 13 (lower bounds) ----------------------------------------------------


def lowerbounds_unit(params: dict) -> dict:
    kind = params["kind"]
    if kind == "gossip_isolation":
        n, t = params["n"], params["t"]
        factory = lambda rumors: [
            RingGossipProcess(i, n, rumors[i]) for i in range(n)
        ]
        rumors_a = ["x"] * n
        rumors_b = ["x"] * n
        rumors_b[7] = "y"
        report = isolation_report(factory, rumors_a, rumors_b, t)
        return {
            "experiment": f"gossip isolation (t={t})",
            "measured": report.isolated_rounds,
            "bound": t // 2,
            "detail": (
                f"crashes used {report.crashes_used}, "
                f"digests matched {report.digests_matched}"
            ),
        }
    if kind == "divergence":
        n = params["n"]
        pp = ProtocolParams(n=n, t=3, seed=3)
        schedule, shared = linear_consensus_schedule(pp)

        def factory(inputs):
            return [
                LinearConsensusProcess(
                    pid, pp, inputs[pid], schedule=schedule, shared=shared
                )
                for pid in range(n)
            ]

        report = divergence_series(factory, n)
        return {
            "experiment": f"consensus divergence (n={n})",
            "measured": report.first_decision_round,
            "bound": round(math.log(n, 3), 1),
            "detail": (
                f"pivot {report.pivot}, |A_i|≤3^i holds: "
                f"{report.respects_cubic_bound()}"
            ),
        }
    raise ValueError(f"unknown lower-bound experiment kind {kind!r}")


def lowerbounds_spec() -> SweepSpec:
    # Heterogeneous units: a rectangular grid cannot mix the isolation
    # t-sweep with the single divergence run, so list them explicitly.
    units = [
        {"kind": "gossip_isolation", "n": 60, "t": t, "seed": SEED}
        for t in (8, 16, 24)
    ]
    units.append({"kind": "divergence", "n": 40, "seed": SEED})
    return SweepSpec(
        name="e13", runner=lowerbounds_unit, units=units, base_seed=SEED
    )



# -- Baseline cross-comparison ---------------------------------------------------------


def baselines_unit(params: dict) -> dict:
    _, recipe, paper = _theorem_run(params)
    label, baseline = _baseline_run(params, recipe)
    return {
        "problem": recipe["name"],
        "n": params["n"],
        "t": params["t"],
        "paper_msgs": paper.messages,
        "baseline_msgs": baseline.messages,
        "baseline": label,
        "paper_rounds": paper.rounds,
        "baseline_rounds": baseline.rounds,
    }


def baselines_spec(n: int = 240) -> SweepSpec:
    # Gossip is compared at its Table 1 boundary t = Θ(n / log² n): that
    # is where the linear-communication claim lives (at t = n/10 the
    # committee-degree constant still dominates at simulation sizes).
    fault_bounds = {
        "consensus-few": n // 10,
        "gossip": table1_fault_bound("gossip", n),
        "checkpointing": n // 10,
    }
    units = [
        {"family": family, "n": n, "t": t, "seed": SEED}
        for family, t in fault_bounds.items()
    ]
    return SweepSpec(
        name="baselines", runner=baselines_unit, units=units, base_seed=SEED
    )



# -- Literature families vs the paper's algorithms ---------------------------


def families_unit(params: dict) -> dict:
    """One cross-family cell: one ``(family, backend)`` run on a
    comparable instance.

    Instances are derived from the unit seed, so the protocol-metric
    columns (``rounds``/``messages``/``bits``/``completed``) are
    deterministic and must agree across backends; ``msgs_per_sec`` /
    ``elapsed_sec`` are wall-clock measurements and jitter like the
    ``net`` series' timing columns (excluded from the byte-identical
    contract).  Every run is validated by its family's correctness
    predicate before its numbers are reported.
    """
    family, n, t, backend = (params[key] for key in ("family", "n", "t", "backend"))
    start = time.perf_counter()
    draw_seed = derive_seed(params["seed"], ("families", family, n, t))
    inputs = input_vector(n, params["kind"], draw_seed, params["width"])
    _, _, result = _run_checked(
        {**params, "inputs": inputs}, crashes=None, **BACKENDS[backend]
    )
    elapsed = time.perf_counter() - start
    return {
        "family": family,
        "n": n,
        "t": t,
        "backend": backend,
        "msgs_per_sec": int(result.messages / max(elapsed, 1e-9)),
        "rounds": result.rounds,
        "messages": result.messages,
        "bits": result.bits,
        "elapsed_sec": round(elapsed, 4),
        "completed": result.completed,
    }


def families_spec(n: int = 40, t: int = 8) -> SweepSpec:
    # The *comparable* instances (not the fuzzer's distribution): family
    # -> input kind.  The two multi-valued protocols draw the same
    # ``width``-bit inputs, so their payload-bit totals differ by the
    # protocols alone; ``width`` and ``eps`` pin the families that take them.
    kinds = {
        "consensus": "random",
        "flooding": "wide",
        "approximate": "real",
        "lv-consensus": "wide",
    }
    common = {"n": n, "t": t, "seed": SEED, "width": 128, "eps": 0.5}
    units = [
        {"family": family, "kind": kind, **common, "backend": backend}
        for family, kind in kinds.items()
        for backend in ("sim-opt", "sim-ref")
    ]
    return SweepSpec(name="families", runner=families_unit, units=units, base_seed=SEED)



# -- Simulator vs. net runtime ----------------------------------------------------------


def net_unit(params: dict) -> dict:
    """One sim-vs-net comparison: run the same protocol, seed and crash
    schedule on the lock-step engine and on the asyncio runtime
    (in-memory transport), report both costs and check exact parity.

    Unlike every other series, this row mixes deterministic columns
    (``problem``/``n``/``t``/``rounds``/``messages``/``bits``/``parity``
    -- identical across runs and ``--jobs`` counts) with wall-clock
    *measurements* (``sim_ms``/``net_ms``/``net/sim``), which jitter
    between runs like any timing and are excluded from the sweep
    harness's byte-identical-rows contract."""
    problem, n, seed = params["problem"], params["n"], params["seed"]
    t = n // 6
    instance = {**params, "family": problem, "t": t}

    def execute(backend: str):
        started = time.perf_counter()
        _, _, result = _run_checked(instance, seed=seed, **BACKENDS[backend])
        return result, time.perf_counter() - started

    (sim, sim_s), (net, net_s) = (execute(b) for b in ("sim-opt", "net"))
    # One parity definition across tests / fuzzing / bench certification;
    # the labels carry the unit context so a violation raised from a
    # pool worker still names its row.
    check_parity(sim, net, f"sim-opt[{problem} n={n} seed={seed}]", "net")
    return {
        "problem": problem,
        "n": n,
        "t": t,
        "rounds": sim.rounds,
        "messages": sim.messages,
        "bits": sim.bits,
        "parity": "exact",
        "sim_ms": round(1000 * sim_s, 1),
        "net_ms": round(1000 * net_s, 1),
        "net/sim": round(net_s / sim_s, 2) if sim_s else float("inf"),
    }


def scenario_unit(params: dict) -> dict:
    """One fault-model degradation cell: run the protocol under a seeded
    omission / partition / churn scenario on all three backends, certify
    exact metric parity, and *report* (rather than assert) whether the
    problem's correctness properties survived the extended fault class.

    The paper proves its guarantees for the crash model only, so a
    ``violated`` safety column under partitions is a finding, not a
    bug — this series measures how the algorithms degrade outside their
    model (the Dwork–Halpern–Waarts question).
    """
    from repro import PropertyViolation
    from repro.scenarios import scenario_schedule

    problem, model, n, seed = (
        params["problem"],
        params["model"],
        params["n"],
        params["seed"],
    )
    t = n // 6
    horizon = 16
    if model == "omission":
        scenario = scenario_schedule(
            n, seed=seed, omission_links=4 * n, max_round=horizon,
            name=f"omission-{n}-{seed}",
        )
    elif model == "partition":
        scenario = scenario_schedule(
            n, seed=seed, partition_windows=2, max_round=horizon,
            name=f"partition-{n}-{seed}",
        )
    elif model == "churn":
        scenario = scenario_schedule(
            n, seed=seed, churn_nodes=max(1, t // 2), max_round=horizon,
            name=f"churn-{n}-{seed}",
        )
    elif model == "mixed":
        scenario = scenario_schedule(
            n, seed=seed, crashes=t // 3, omission_links=n,
            partition_windows=1, churn_nodes=max(1, t // 4),
            max_round=horizon, name=f"mixed-{n}-{seed}",
        )
    else:
        raise ValueError(f"unknown scenario model {model!r}")

    record = by_recipe(problem)
    recipe = _standard_recipe(record, {**params, "t": t})
    runs = {
        backend: run_recipe(recipe, scenario=scenario, **BACKENDS[backend])
        for backend in ("sim-opt", "sim-ref", "net")
    }
    opt = runs.pop("sim-opt")
    for label, other in runs.items():
        # One parity definition across tests / fuzzing / bench rows; the
        # label carries the unit context for pool-worker tracebacks.
        check_parity(
            opt, other, f"sim-opt[{problem}/{model} n={n} seed={seed}]", label
        )
    try:
        record.safety(recipe, opt)
        safety = "ok"
    except PropertyViolation as exc:
        safety = f"violated ({type(exc).__name__})"
    return {
        "problem": problem,
        "model": model,
        "n": n,
        "t": t,
        "faults": scenario.fault_budget(),
        "rounds": opt.rounds,
        "messages": opt.messages,
        "dropped": opt.metrics.dropped_messages,
        "parity": "exact",
        "safety": safety,
    }


def scenarios_spec(n: int = 60) -> SweepSpec:
    """Fault-model degradation series: omission / partition / churn /
    mixed scenarios on consensus and gossip, every row parity-certified
    across sim-opt, sim-ref and net, with safety reported as data."""
    return SweepSpec(
        name="scenarios",
        runner=scenario_unit,
        grid={
            "problem": ["consensus", "gossip"],
            "model": ["omission", "partition", "churn", "mixed"],
            "n": [n],
            "seed": [SEED],
        },
        base_seed=SEED,
    )



def net_spec(ns: Optional[list[int]] = None) -> SweepSpec:
    """Sim-vs-net cost series: every row certifies exact metric parity
    and reports the wall-clock ratio of the asyncio runtime over the
    lock-step engine for the same execution."""
    ns = ns or [60, 120, 240]
    return SweepSpec(
        name="net",
        runner=net_unit,
        grid={
            "problem": ["consensus", "gossip", "checkpointing"],
            "n": ns,
            "seed": [SEED],
        },
        base_seed=SEED,
    )



# -- Differential fuzzing (repro.check) --------------------------------------


def fuzz_spec(budget: int = 35) -> SweepSpec:
    """The :mod:`repro.check` differential-fuzz series as a sweep.

    Each unit is one sampled ``(family, params, scenario, backends)``
    configuration run differentially across sim-opt/sim-ref/net with
    every oracle armed; violations surface as row data (``violations`` /
    ``oracles`` columns), and ``python -m repro.check`` is the
    fail-fast/shrinking front end over the *same* spec
    (:func:`repro.check.driver.build_fuzz_spec` is the single unit-shape
    definition, so the two surfaces cannot drift).  Deterministic (seed
    0); families cycle so any ``budget`` ≥ 7 covers all.
    """
    return build_fuzz_spec(0, budget)



# -- Adversary search (repro.check.search) ------------------------------------


def adversary_unit(params: dict) -> dict:
    """One worst-case-constant cell: anneal over crash/churn scenario
    space for the worst measured communication ratio of one pinned
    ``(family, n, t)`` instance, and report the *measured constant* --
    the worst observed communication as a multiple of the instance's
    Table 1 envelope expression.  The per-``t`` curve this sweep traces
    is a result the paper itself doesn't report: its theorems bound the
    constant, the search measures how much of that bound an adaptive
    crash adversary can actually consume.
    """
    row = search_unit({**params, "moves": "crash", "objective": "comm"})
    certificate = row["best_certificate"]
    constant = certificate["constant"]
    return {
        "family": row["family"],
        "n": row["n"],
        "t": row["t"],
        "measure": certificate["comm_measure"],
        "budget": row["budget"],
        "baseline_ratio": row["baseline_energy"],
        "worst_ratio": row["best_energy"],
        "gain": row["gain"],
        # observed = measured_constant * envelope; the theorem's
        # (calibrated) constant is the envelope_constant column.
        "envelope_constant": constant,
        "measured_constant": round(row["best_energy"] * constant, 4),
        "worst_rounds_ratio": row["best_rounds_ratio"],
        "faults": row["faults"],
        "evaluations": row["evaluations"],
        "spot_checks": row["spot_checks"],
    }


def adversary_spec(
    n: int = 24,
    ts: Optional[list[int]] = None,
    budget: int = 60,
) -> SweepSpec:
    """The ``repro-bench adversary`` series: per-``t`` worst-case
    constants for the kernel families, via the annealing adversary
    search (crash-model moves, communication objective).

    ``t`` stays below ``(n - 1) / 5`` so every family accepts the pinned
    instance; rows are deterministic (seed 0) and jobs-independent like
    every sweep.
    """
    from repro.sim.vec import KERNEL_FAMILIES

    ts = ts or [1, 2, 3, 4]
    units = [
        {
            "family": family,
            "n": n,
            "t": t,
            "search_seed": 0,
            "seed": 0,
            "budget": budget,
        }
        for family in KERNEL_FAMILIES
        for t in ts
    ]
    return SweepSpec(
        name="adversary", runner=adversary_unit, units=units, base_seed=0
    )
