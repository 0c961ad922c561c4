"""Per-experiment measurement series (the data behind EXPERIMENTS.md).

Each experiment is expressed as a :class:`~repro.bench.sweep.SweepSpec`:
a declarative parameter grid plus a module-level *unit runner* mapping
one fully-bound parameter dict to one row dict.  The ``exp_*`` wrappers
(the public surface used by :mod:`repro.bench.runner` and the tests)
expand the spec and execute it through the sweep scheduler — serially
by default, or across cores with ``jobs > 1`` — so every table can be
regenerated in parallel without changing a single row.

Every unit validates its execution against the problem's correctness
predicate (a benchmark number is only reported for a *correct* run).
The ``bound_ratio``-style columns divide the measured quantity by the
theorem's bound expression: Table 1's claims hold if the ratios stay
bounded by a constant as the sweep grows.

Rows are byte-identical across runs and ``--jobs`` counts, with one
documented exception: the ``net`` series' ``sim_ms``/``net_ms``/
``net/sim`` columns are wall-clock measurements (its remaining columns
stay deterministic; see :func:`net_unit`).
"""

from __future__ import annotations

import math
from typing import Optional

from repro import (
    check_aea,
    check_checkpointing,
    check_consensus,
    check_gossip,
    check_scv,
    run_aea,
    run_ab_consensus,
    run_checkpointing,
    run_consensus,
    run_gossip,
    run_recipe,
    run_scv,
)
from repro.baselines import (
    FloodingConsensusProcess,
    NaiveCheckpointingProcess,
    NaiveGossipProcess,
)
from repro.baselines.ring_gossip import RingGossipProcess
from repro.bench.sweep import SweepSpec, derive_seed, run_sweep
from repro.bench.workloads import byzantine_sample, input_vector, rumor_vector, table1_fault_bound
from repro.check.driver import build_fuzz_spec
from repro.check.oracles import check_parity
from repro.core.params import ProtocolParams
from repro.families import by_family, by_recipe
from repro.lowerbounds import divergence_series, isolation_report
from repro.sim import Engine, crash_schedule
from repro.singleport.linear_consensus import (
    LinearConsensusProcess,
    linear_consensus_schedule,
)
from repro.sim.singleport import SinglePortEngine

__all__ = [
    "exp_adversary",
    "exp_baselines",
    "exp_families",
    "exp_fuzz",
    "exp_e5_aea",
    "exp_e6_scv",
    "exp_e7_consensus_few",
    "exp_e8_consensus_many",
    "exp_e9_gossip",
    "exp_e10_checkpointing",
    "exp_e11_byzantine",
    "exp_e12_singleport",
    "exp_e13_lowerbounds",
    "exp_net",
    "exp_scenarios",
    "exp_table1",
    "smoke_spec",
]


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


def _consensus_comm_bound(params: ProtocolParams) -> float:
    """The Theorem 7 bit bound with the practical overlay constants
    (committee probing + expander spreading): the registry's envelope."""
    return by_family("consensus-few").envelope(params, {})


def _gossip_comm_bound(params: ProtocolParams) -> float:
    """The Theorem 9 message bound with the practical constants (phases
    of committee probing plus the linear inquiry part): the registry's
    envelope."""
    return by_family("gossip").envelope(params, {})


# -- Table 1 ----------------------------------------------------------------


def table1_unit(params: dict) -> dict:
    """One Table 1 cell: ``params`` binds ``problem``, ``n`` and ``seed``."""
    problem = params["problem"]
    n = params["n"]
    seed = params["seed"]
    t = table1_fault_bound(problem, n)
    if problem == "consensus":
        # Crash consensus at t = Θ(n / log n); communication = bits.
        inputs = input_vector(n, "random", seed)
        result = run_consensus(inputs, t, algorithm="auto", seed=seed)
        check_consensus(result, inputs)
        pp = ProtocolParams(n=n, t=t)
        comm = result.bits
        bound = _consensus_comm_bound(pp)
        row_name = "crash/consensus"
    elif problem == "gossip":
        rumors = rumor_vector(n, seed)
        result = run_gossip(rumors, t, crashes="random", seed=seed)
        check_gossip(result, rumors)
        pp = ProtocolParams(n=n, t=t)
        comm = result.messages
        bound = _gossip_comm_bound(pp)
        row_name = "crash/gossip"
    elif problem == "checkpointing":
        result = run_checkpointing(n, t, crashes="random", seed=seed)
        check_checkpointing(result)
        pp = ProtocolParams(n=n, t=t)
        comm = result.messages
        bound = _gossip_comm_bound(pp) + _consensus_comm_bound(pp)
        row_name = "crash/checkpointing"
    elif problem == "byzantine":
        inputs = input_vector(n, "random", seed)
        byz = byzantine_sample(n, t, seed)
        result = run_ab_consensus(inputs, t, byzantine=byz, behaviour="equivocate")
        comm = result.messages
        bound = 30.0 * (t * t + n)
        row_name = "auth-byz/consensus"
    else:
        raise ValueError(f"unknown Table 1 problem {problem!r}")
    return {
        "row": row_name,
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "comm": comm,
        "rounds/(t+lg n)": round(result.rounds / (t + _log2(n)), 2),
        "comm/n": round(comm / n, 1),
        "comm/bound": round(comm / bound, 2),
    }


def table1_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [128, 256, 512]
    return SweepSpec(
        name="table1",
        runner=table1_unit,
        grid={
            "problem": ["consensus", "gossip", "checkpointing", "byzantine"],
            "n": ns,
            "seed": [seed],
        },
        base_seed=seed,
    )


def smoke_spec(n: int = 48, seed: int = 1) -> SweepSpec:
    """A seconds-scale slice of the Table 1 grid, for profiling smoke runs.

    ``repro-bench profile smoke`` is what the CI observability job runs:
    one unit per Table 1 problem at a small ``n`` -- enough work to
    produce a non-trivial multi-unit timeline and exercise the telemetry
    exporters, small enough to finish in seconds.
    """
    return SweepSpec(
        name="smoke",
        runner=table1_unit,
        grid={
            "problem": ["consensus", "gossip", "checkpointing", "byzantine"],
            "n": [n],
            "seed": [seed],
        },
        base_seed=seed,
    )


def exp_table1(
    ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1
) -> list[dict]:
    """Regenerate Table 1: with ``t`` pinned at each row's optimality
    boundary, both ``rounds/(t + lg n)`` and ``comm/n`` must stay
    bounded as ``n`` grows."""
    return run_sweep(table1_spec(ns, seed), jobs=jobs).rows()


# -- E5: Theorem 5 (AEA) -------------------------------------------------------


def aea_unit(params: dict) -> dict:
    n, seed = params["n"], params["seed"]
    t = n // 6
    inputs = input_vector(n, "random", seed)
    result = run_aea(inputs, t, crashes="random", seed=seed)
    check_aea(result, inputs)
    deciders = len(result.correct_decisions())
    return {
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "messages": result.messages,
        "bits": result.bits,
        "deciders/n": round((deciders + len(result.crashed)) / n, 3),
        "rounds/t": round(result.rounds / t, 2),
        "msgs/(n+t·lg t·d)": round(result.messages / (n + t * _log2(t) * 32), 2),
    }


def aea_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [120, 240, 480]
    return SweepSpec(
        name="e5", runner=aea_unit, grid={"n": ns, "seed": [seed]}, base_seed=seed
    )


def exp_e5_aea(
    ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1
) -> list[dict]:
    return run_sweep(aea_spec(ns, seed), jobs=jobs).rows()


# -- E6: Theorem 6 (SCV) -------------------------------------------------------


def scv_unit(params: dict) -> dict:
    import random as stdlib_random

    n, t, seed = params["n"], params["t"], params["seed"]
    pp = ProtocolParams(n=n, t=t)
    rng = stdlib_random.Random(seed)
    holders = set(rng.sample(range(n), int(0.62 * n)))
    result = run_scv(n, t, holders, 1, crashes="random", seed=seed)
    check_scv(result, 1)
    return {
        "n": n,
        "t": t,
        "branch": "direct(t²≤n)" if pp.scv_direct_inquiry else "doubling",
        "rounds": result.rounds,
        "messages": result.messages,
        "rounds/lg t": round(result.rounds / _log2(t), 2),
        "msgs/(n+t·lg t)": round(result.messages / (n + 20 * t * _log2(t)), 2),
    }


def scv_spec(n: int = 400, seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="e6",
        runner=scv_unit,
        # spans the t² ≤ n crossover at t = √n
        grid={"t": [10, 19, 21, 40, 79], "n": [n], "seed": [seed]},
        base_seed=seed,
    )


def exp_e6_scv(n: int = 400, seed: int = 1, jobs: int = 1) -> list[dict]:
    return run_sweep(scv_spec(n, seed), jobs=jobs).rows()


# -- E7: Theorem 7 (Few-Crashes-Consensus) ----------------------------------------


def consensus_few_unit(params: dict) -> dict:
    n, seed = params["n"], params["seed"]
    t = params.get("t", n // 6)
    inputs = input_vector(n, "random", seed)
    result = run_consensus(inputs, t, algorithm="few", seed=seed)
    check_consensus(result, inputs)
    return {
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "messages": result.messages,
        "bits": result.bits,
        "rounds/(t+lg n)": round(result.rounds / (t + _log2(n)), 2),
        "bits/(n+t·lg t·d)": round(result.bits / (n + t * _log2(t) * 32), 2),
    }


def consensus_few_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [120, 240, 480]
    return SweepSpec(
        name="e7",
        runner=consensus_few_unit,
        grid={"n": ns, "seed": [seed]},
        base_seed=seed,
    )


def exp_e7_consensus_few(
    ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1
) -> list[dict]:
    return run_sweep(consensus_few_spec(ns, seed), jobs=jobs).rows()


# -- E8: Theorem 8 / Corollary 1 (Many-Crashes-Consensus) ---------------------------


def consensus_many_unit(params: dict) -> dict:
    n, alpha_pct, seed = params["n"], params["alpha_pct"], params["seed"]
    t = min(n - 1, max(1, n * alpha_pct // 100))
    inputs = input_vector(n, "random", seed)
    result = run_consensus(inputs, t, algorithm="many", seed=seed)
    check_consensus(result, inputs)
    base_bound = n + 3 * (1 + _log2(n)) + 7
    # Degenerate fault patterns (α → 1 with no probing survivor)
    # trigger the recovery epilogue, adding at most t + 2 rounds;
    # see DESIGN.md and the Many-Crashes-Consensus docstring.
    recovery_used = result.rounds > base_bound
    round_bound = base_bound + (t + 2 if recovery_used else 0)
    return {
        "n": n,
        "t": t,
        "alpha": round(t / n, 2),
        "rounds": result.rounds,
        "round_bound(n+3(1+lg n))": int(round_bound),
        "recovery": "yes" if recovery_used else "no",
        "messages": result.messages,
        "bits": result.bits,
        "rounds/bound": round(result.rounds / round_bound, 2),
    }


def consensus_many_spec(n: int = 96, seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="e8",
        runner=consensus_many_unit,
        grid={"alpha_pct": [30, 60, 90, 98], "n": [n], "seed": [seed]},
        base_seed=seed,
    )


def exp_e8_consensus_many(n: int = 96, seed: int = 1, jobs: int = 1) -> list[dict]:
    return run_sweep(consensus_many_spec(n, seed), jobs=jobs).rows()


# -- E9: Theorem 9 (Gossip) -----------------------------------------------------


def gossip_unit(params: dict) -> dict:
    n, seed = params["n"], params["seed"]
    t = params.get("t", n // 10)
    rumors = rumor_vector(n, seed)
    result = run_gossip(rumors, t, crashes="random", seed=seed)
    check_gossip(result, rumors)
    return {
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "messages": result.messages,
        "rounds/(lg n·lg t)": round(result.rounds / (_log2(n) * _log2(t)), 2),
        "msgs/bound": round(
            result.messages / _gossip_comm_bound(ProtocolParams(n=n, t=t)), 2
        ),
    }


def gossip_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [120, 240, 480]
    return SweepSpec(
        name="e9", runner=gossip_unit, grid={"n": ns, "seed": [seed]}, base_seed=seed
    )


def exp_e9_gossip(
    ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1
) -> list[dict]:
    return run_sweep(gossip_spec(ns, seed), jobs=jobs).rows()


# -- E10: Theorem 10 (Checkpointing) -----------------------------------------------


def checkpointing_unit(params: dict) -> dict:
    n, seed = params["n"], params["seed"]
    t = params.get("t", n // 10)
    result = run_checkpointing(n, t, crashes="random", seed=seed)
    check_checkpointing(result)
    baseline_procs = [NaiveCheckpointingProcess(i, n, t) for i in range(n)]
    baseline = Engine(
        baseline_procs, crash_schedule(n, t, seed=seed, max_round=t + 2)
    ).run()
    check_checkpointing(baseline)
    return {
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "messages": result.messages,
        "naive_msgs(n²t)": baseline.messages,
        "msg_ratio(naive/paper)": round(baseline.messages / result.messages, 2),
        "rounds/(t+lgn·lgt)": round(result.rounds / (t + _log2(n) * _log2(t)), 2),
    }


def checkpointing_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [100, 200, 400]
    return SweepSpec(
        name="e10",
        runner=checkpointing_unit,
        grid={"n": ns, "seed": [seed]},
        base_seed=seed,
    )


def exp_e10_checkpointing(
    ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1
) -> list[dict]:
    return run_sweep(checkpointing_spec(ns, seed), jobs=jobs).rows()


# -- E11: Theorem 11 (AB-Consensus) --------------------------------------------------


def byzantine_unit(params: dict) -> dict:
    n, t, seed = params["n"], params["t"], params["seed"]
    inputs = input_vector(n, "random", seed)
    byz = byzantine_sample(n, t, seed)
    result = run_ab_consensus(inputs, t, byzantine=byz, behaviour="equivocate")
    return {
        "n": n,
        "t": t,
        "t²/n": round(t * t / n, 2),
        "rounds": result.rounds,
        "messages": result.messages,
        "rounds/t": round(result.rounds / t, 2),
        "msgs/(t²+n)": round(result.messages / (t * t + n), 2),
        "msgs/n": round(result.messages / n, 2),
    }


def byzantine_spec(n: int = 400, seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="e11",
        runner=byzantine_unit,
        # √n = 20: the linear-communication crossover
        grid={"t": [5, 10, 20, 40], "n": [n], "seed": [seed]},
        base_seed=seed,
    )


def exp_e11_byzantine(n: int = 400, seed: int = 1, jobs: int = 1) -> list[dict]:
    return run_sweep(byzantine_spec(n, seed), jobs=jobs).rows()


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
    result = SinglePortEngine(processes, adversary).run()
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


def singleport_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [60, 120, 240]
    return SweepSpec(
        name="e12",
        runner=singleport_unit,
        grid={"n": ns, "seed": [seed]},
        base_seed=seed,
    )


def exp_e12_singleport(
    ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1
) -> list[dict]:
    return run_sweep(singleport_spec(ns, seed), jobs=jobs).rows()


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
        report = isolation_report(factory, rumors_a, rumors_b, t, victim=0)
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


def lowerbounds_spec(seed: int = 1) -> SweepSpec:
    # Heterogeneous units: a rectangular grid cannot mix the isolation
    # t-sweep with the single divergence run, so list them explicitly.
    units = [
        {"kind": "gossip_isolation", "n": 60, "t": t, "seed": seed}
        for t in (8, 16, 24)
    ]
    units.append({"kind": "divergence", "n": 40, "seed": seed})
    return SweepSpec(
        name="e13", runner=lowerbounds_unit, units=units, base_seed=seed
    )


def exp_e13_lowerbounds(seed: int = 1, jobs: int = 1) -> list[dict]:
    return run_sweep(lowerbounds_spec(seed), jobs=jobs).rows()


# -- Baseline cross-comparison ---------------------------------------------------------


def baselines_unit(params: dict) -> dict:
    problem, n, seed = params["problem"], params["n"], params["seed"]
    t = n // 10
    if problem == "consensus":
        inputs = input_vector(n, "random", seed)
        paper = run_consensus(inputs, t, algorithm="few", seed=seed)
        check_consensus(paper, inputs)
        procs = [FloodingConsensusProcess(i, n, t, inputs[i]) for i in range(n)]
        flooding = Engine(
            procs, crash_schedule(n, t, seed=seed, max_round=t + 1)
        ).run()
        check_consensus(flooding, inputs)
        return {
            "problem": "consensus",
            "paper_msgs": paper.messages,
            "baseline_msgs": flooding.messages,
            "baseline": "flooding (t+1 rounds, all-to-all)",
            "paper_rounds": paper.rounds,
            "baseline_rounds": flooding.rounds,
        }
    if problem == "gossip":
        # Gossip is compared at its Table 1 boundary t = Θ(n / log² n):
        # that is where the linear-communication claim lives (at t = n/10
        # the committee-degree constant still dominates at simulation
        # sizes).
        gossip_t = table1_fault_bound("gossip", n)
        rumors = rumor_vector(n, seed)
        paper = run_gossip(rumors, gossip_t, crashes="random", seed=seed)
        check_gossip(paper, rumors)
        gprocs = [NaiveGossipProcess(i, n, rumors[i]) for i in range(n)]
        naive = Engine(
            gprocs, crash_schedule(n, gossip_t, seed=seed, max_round=2)
        ).run()
        return {
            "problem": f"gossip (t={gossip_t})",
            "paper_msgs": paper.messages,
            "baseline_msgs": naive.messages,
            "baseline": "all-to-all exchange",
            "paper_rounds": paper.rounds,
            "baseline_rounds": naive.rounds,
        }
    if problem == "checkpointing":
        paper = run_checkpointing(n, t, crashes="random", seed=seed)
        check_checkpointing(paper)
        cprocs = [NaiveCheckpointingProcess(i, n, t) for i in range(n)]
        naive = Engine(
            cprocs, crash_schedule(n, t, seed=seed, max_round=t + 2)
        ).run()
        return {
            "problem": "checkpointing",
            "paper_msgs": paper.messages,
            "baseline_msgs": naive.messages,
            "baseline": "ping + mask AND-flooding (n²t)",
            "paper_rounds": paper.rounds,
            "baseline_rounds": naive.rounds,
        }
    raise ValueError(f"unknown baseline problem {problem!r}")


def baselines_spec(n: int = 240, seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="baselines",
        runner=baselines_unit,
        grid={
            "problem": ["consensus", "gossip", "checkpointing"],
            "n": [n],
            "seed": [seed],
        },
        base_seed=seed,
    )


def exp_baselines(n: int = 240, seed: int = 1, jobs: int = 1) -> list[dict]:
    return run_sweep(baselines_spec(n, seed), jobs=jobs).rows()


# -- Literature families vs the paper's algorithms ---------------------------


def _wide_input(rng, width: int) -> int:
    return rng.randrange(0, 2**width)


#: The cross-family series' *comparable* instances (not the fuzzer's
#: distribution): bench label -> (recipe name, one input drawn from
#: ``rng``).  The two multi-valued protocols draw the same ``width``-bit
#: inputs, so their payload-bit totals differ by the protocols alone.
_BENCH_FAMILIES = {
    "consensus": ("consensus", lambda rng, width: rng.randint(0, 1)),
    "flooding": ("flooding", _wide_input),
    "approximate": (
        "approximate",
        lambda rng, width: round(rng.uniform(0.0, 100.0), 4),
    ),
    "lv-consensus": ("lv_consensus", _wide_input),
}


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
    import random as _random
    import time as _time

    family, n, t = params["family"], params["n"], params["t"]
    seed, backend = params["seed"], params["backend"]
    width = params.get("width", 128)
    rng = _random.Random(derive_seed(seed, ("families", family, n, t)))
    name, draw = _BENCH_FAMILIES[family]
    record = by_recipe(name)
    start = _time.perf_counter()
    recipe = {"name": name, "inputs": [draw(rng, width) for _ in range(n)], "t": t}
    # Pin the knobs this series sweeps on the families that have them.
    knobs = {"width": width, "eps": params.get("eps", 0.5)}
    recipe.update({k: v for k, v in knobs.items() if k in record.optional})
    result = run_recipe(
        recipe, crashes=None, backend="sim", optimized=(backend != "sim-ref")
    )
    record.safety(recipe, result)
    elapsed = _time.perf_counter() - start
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


def families_spec(n: int = 40, t: int = 8, seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="families",
        runner=families_unit,
        grid={
            "family": list(_BENCH_FAMILIES),
            "n": [n],
            "t": [t],
            "seed": [seed],
            "backend": ["sim-opt", "sim-ref"],
        },
        base_seed=seed,
    )


def exp_families(
    n: int = 40, t: int = 8, seed: int = 1, jobs: int = 1
) -> list[dict]:
    return run_sweep(families_spec(n, t, seed), jobs=jobs).rows()


# -- Simulator vs. net runtime ----------------------------------------------------------


def _problem_recipe(problem: str, n: int, t: int, seed: int) -> dict:
    """The standard instance of a problem as a recipe: the required keys
    of its registry record, filled from :mod:`repro.bench.workloads`."""
    fill = {
        "inputs": lambda: input_vector(n, "random", seed),
        "rumors": lambda: rumor_vector(n, seed),
        "n": lambda: n,
        "t": lambda: t,
    }
    return {
        "name": problem,
        **{key: fill[key]() for key in by_recipe(problem).required},
    }


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
    import time

    problem, n, seed = params["problem"], params["n"], params["seed"]
    t = n // 6

    def execute(backend: str):
        started = time.perf_counter()
        recipe = _problem_recipe(problem, n, t, seed)
        result = run_recipe(recipe, seed=seed, backend=backend)
        by_recipe(problem).safety(recipe, result)
        return result, time.perf_counter() - started

    sim, sim_s = execute("sim")
    net, net_s = execute("net")
    # One parity definition across tests / fuzzing / bench certification;
    # the labels carry the unit context so a violation raised from a
    # pool worker still names its row.
    check_parity(sim, net, f"sim[{problem} n={n} seed={seed}]", "net")
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

    recipe = _problem_recipe(problem, n, t, seed)
    opt = run_recipe(recipe, scenario=scenario)
    ref = run_recipe(recipe, scenario=scenario, optimized=False)
    net = run_recipe(recipe, scenario=scenario, backend="net")
    for label, other in (("sim-ref", ref), ("net", net)):
        # One parity definition across tests / fuzzing / bench rows; the
        # label carries the unit context for pool-worker tracebacks.
        check_parity(
            opt, other, f"sim-opt[{problem}/{model} n={n} seed={seed}]", label
        )
    try:
        by_recipe(problem).safety(recipe, opt)
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


def scenarios_spec(n: int = 60, seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="scenarios",
        runner=scenario_unit,
        grid={
            "problem": ["consensus", "gossip"],
            "model": ["omission", "partition", "churn", "mixed"],
            "n": [n],
            "seed": [seed],
        },
        base_seed=seed,
    )


def exp_scenarios(n: int = 60, seed: int = 1, jobs: int = 1) -> list[dict]:
    """Fault-model degradation series: omission / partition / churn /
    mixed scenarios on consensus and gossip, every row parity-certified
    across sim-opt, sim-ref and net, with safety reported as data."""
    return run_sweep(scenarios_spec(n, seed), jobs=jobs).rows()


def net_spec(ns: Optional[list[int]] = None, seed: int = 1) -> SweepSpec:
    ns = ns or [60, 120, 240]
    return SweepSpec(
        name="net",
        runner=net_unit,
        grid={
            "problem": ["consensus", "gossip", "checkpointing"],
            "n": ns,
            "seed": [seed],
        },
        base_seed=seed,
    )


def exp_net(ns: Optional[list[int]] = None, seed: int = 1, jobs: int = 1) -> list[dict]:
    """Sim-vs-net cost series: every row certifies exact metric parity
    and reports the wall-clock ratio of the asyncio runtime over the
    lock-step engine for the same execution."""
    return run_sweep(net_spec(ns, seed), jobs=jobs).rows()


# -- Differential fuzzing (repro.check) --------------------------------------


def fuzz_spec(budget: int = 35, seed: int = 0) -> SweepSpec:
    """The :mod:`repro.check` differential-fuzz series as a sweep.

    Each unit is one sampled ``(family, params, scenario, backends)``
    configuration run differentially across sim-opt/sim-ref/net with
    every oracle armed; violations surface as row data (``violations`` /
    ``oracles`` columns), and ``python -m repro.check`` is the
    fail-fast/shrinking front end over the *same* spec
    (:func:`repro.check.driver.build_fuzz_spec` is the single unit-shape
    definition, so the two surfaces cannot drift).  Deterministic given
    ``seed``; families cycle so any ``budget`` ≥ 7 covers all.
    """
    return build_fuzz_spec(seed, budget)


def exp_fuzz(budget: int = 35, seed: int = 0, jobs: int = 1) -> list[dict]:
    """Run the differential-fuzz series and return its rows."""
    return run_sweep(fuzz_spec(budget, seed), jobs=jobs).rows()


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
    from repro.check.oracles import BOUND_CONSTANTS
    from repro.check.search import make_search_config, run_search

    config = make_search_config(
        params["family"],
        seed=params["search_seed"],
        budget=params["budget"],
        method=params.get("method") or "anneal",
        moves="crash",  # stay inside the proven crash model
        objective="comm",
        n=params["n"],
        t=params["t"],
    )
    result = run_search(config)
    row = result.to_row()
    measure, constant = BOUND_CONSTANTS[params["family"]]
    return {
        "family": row["family"],
        "n": row["n"],
        "t": row["t"],
        "measure": measure,
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
    seed: int = 0,
    budget: int = 60,
) -> SweepSpec:
    """The ``repro-bench adversary`` series: per-``t`` worst-case
    constants for the kernel families, via the annealing adversary
    search (crash-model moves, communication objective).

    ``t`` stays below ``(n - 1) / 5`` so every family accepts the pinned
    instance; rows are deterministic given ``seed`` and jobs-independent
    like every sweep.
    """
    from repro.sim.vec import KERNEL_FAMILIES

    ts = ts or [1, 2, 3, 4]
    units = [
        {
            "family": family,
            "n": n,
            "t": t,
            "search_seed": seed,
            "seed": seed,
            "budget": budget,
        }
        for family in KERNEL_FAMILIES
        for t in ts
    ]
    return SweepSpec(
        name="adversary", runner=adversary_unit, units=units, base_seed=seed
    )


def exp_adversary(
    n: int = 24,
    ts: Optional[list[int]] = None,
    seed: int = 0,
    budget: int = 60,
    jobs: int = 1,
) -> list[dict]:
    """Run the adversary-search series and return its per-``t`` rows."""
    return run_sweep(adversary_spec(n, ts, seed, budget), jobs=jobs).rows()
