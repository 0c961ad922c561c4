"""The four named workloads of the perf ladder, generated from ``--seed``.

Everything random about a run -- input vectors, rumor lists, crash-schedule
seeds, ``scenario_schedule`` seeds, the serve submission order -- is drawn
here from ``random.Random`` streams keyed on ``(seed, workload)``.  The
program under test only ever receives the generated recipes and execution
arguments, so the same seed gives the same instance list on every commit.

The *shape* of a workload (families, ``n``/``t``, instance counts, fault
classes) is fixed in the tables below; the seed moves inputs and fault
placement only.  That keeps pass times comparable across seeds: the driver
judges spread over ten different seeds, so a workload whose cost swung with
its seed would be unusable as a regression gate.

Seeds below 1000 were used while sizing; :data:`HELD_OUT_SEED` was not, and
is the seed the acceptance check "a held-out seed also runs clean" refers to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.check.driver import FAMILIES, sample_instance
from repro.scenarios import Scenario, scenario_schedule

__all__ = ["HELD_OUT_SEED", "Instance", "WORKLOADS", "Workload", "build_workload"]

#: Never used while choosing sizes, bounds or pass counts.
HELD_OUT_SEED = 20230619


@dataclass(frozen=True)
class Instance:
    """One protocol execution: what ``run_recipe`` / ``submit`` receive."""

    label: str  #: family or recipe-class name (per-family metrics key on it)
    recipe: dict
    crashes: Optional[str] = "random"
    seed: int = 0
    scenario: Optional[Scenario] = None
    max_rounds: Optional[int] = None

    def execution(self) -> dict:
        """Keyword arguments for ``run_recipe`` / ``prepare_recipe``."""
        kwargs: dict = {"seed": self.seed}
        if self.scenario is not None:
            kwargs["scenario"] = self.scenario
        elif self.recipe["name"] != "ab_consensus":  # it has no crash schedule
            kwargs["crashes"] = self.crashes
        if self.max_rounds is not None:
            kwargs["max_rounds"] = self.max_rounds
        return kwargs

    def wire_execution(self) -> dict:
        """The same arguments in the JSON-safe shape a serve client submits."""
        kwargs = self.execution()
        if self.scenario is not None:
            kwargs["scenario"] = self.scenario.to_dict()
        return kwargs


@dataclass(frozen=True)
class Workload:
    name: str
    #: the two rungs of the backend ladder this workload is timed on, in
    #: order: ``rung1_pass_s`` is the first, ``rung2_pass_s`` and the
    #: per-instance latencies are the second
    rungs: tuple[str, str]
    why: str
    instances: list = field(default_factory=list)


def _rng(seed: int, *key) -> random.Random:
    return random.Random(f"perf-ladder/{seed}/" + "/".join(map(str, key)))


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -- dense-flood -------------------------------------------------------------

#: (instances, n, t).  n=800 puts 4 rounds x ~640 k delivered messages in
#: each instance; the issue's n=1000 starting point makes one sim pass
#: 2.3 s, which leaves too few passes inside the contract's run length.
_DENSE = {"full": (4, 800, 3), "quick": (2, 120, 3)}


def _dense_flood(seed: int, size: str) -> list:
    count, n, t = _DENSE[size]
    rng = _rng(seed, "dense-flood")
    return [
        Instance(
            "flooding",
            {"name": "flooding", "inputs": [rng.randint(0, 1) for _ in range(n)], "t": t},
            seed=_draw_seed(rng),
        )
        for _ in range(count)
    ]


# -- family-suite ------------------------------------------------------------

#: family -> (n, t, instance count, fault window).  Shapes keep the
#: paper-range t/n ratios of the issue's list at roughly half its n, and
#: counts are chosen so every family is 7-13 % of the sim pass (measured,
#: see README).  ``window`` bounds the rounds a scenario places faults in:
#: a churn node must rejoin before its family's schedule ends or the run
#: idles to ``max_rounds`` and counts as failed, so the fixed-length
#: families (t + 1 rounds and the like) get a window below their length.
_FAMILY_SHAPES = {
    "full": {
        "consensus-few": (480, 24, 4, 24),
        "consensus-many": (160, 64, 3, 24),
        "aea": (480, 50, 3, 24),
        "scv": (480, 40, 8, 12),
        "gossip": (150, 3, 2, 24),
        "checkpointing": (160, 2, 2, 24),
        "ab-consensus": (144, 6, 4, 8),
        "flooding": (240, 8, 2, 6),
        "approximate": (128, 8, 2, 8),
        "lv-consensus": (600, 100, 2, 24),
    },
    "quick": {
        "consensus-few": (40, 4, 1, 8),
        "consensus-many": (24, 8, 1, 8),
        "aea": (40, 4, 1, 8),
        "scv": (40, 4, 1, 8),
        "gossip": (30, 2, 1, 8),
        "checkpointing": (30, 2, 1, 8),
        "ab-consensus": (24, 3, 1, 4),
        "flooding": (40, 4, 1, 3),
        "approximate": (24, 4, 1, 3),
        "lv-consensus": (40, 8, 1, 6),
    },
}


def _suite_scenario(rng: random.Random, recipe: dict, n: int, window: int, name: str) -> Scenario:
    """Omission + partition + churn: the engine's ``apply_link_filter``
    slow path and the rejoin phase, all out of the proven crash model."""
    byzantine = set(recipe.get("byzantine", ()))
    return scenario_schedule(
        n,
        seed=_draw_seed(rng),
        omission_links=max(2, n // 8),
        partition_windows=1,
        churn_nodes=1,
        max_round=window,
        victims=[pid for pid in range(n) if pid not in byzantine],
        name=name,
    )


def _family_suite(seed: int, size: str) -> list:
    instances = []
    for family in FAMILIES:
        n, t, count, window = _FAMILY_SHAPES[size][family]
        rng = _rng(seed, "family-suite", family)
        for k in range(count):
            recipe = sample_instance(family, rng, seed, n=n, t=t)
            scenario = None
            max_rounds = None
            # Every third instance overall, so each family with >= 3
            # instances carries at least one scenario and none is all
            # scenarios.
            if len(instances) % 3 == 2:
                scenario = _suite_scenario(
                    rng, recipe, n, window, f"suite-{seed}-{family}-{k}"
                )
                # Bounded like the fuzzer's safety net: a run that fails
                # to quiesce reports completed=False instead of stalling.
                max_rounds = 8 * n + 512
            instances.append(
                Instance(
                    family,
                    recipe,
                    seed=_draw_seed(rng),
                    scenario=scenario,
                    max_rounds=max_rounds,
                )
            )
    return instances


# -- wire-ladder -------------------------------------------------------------

#: label -> n (t follows).  About 40 % of the issue's starting sizes: at
#: those one tcp pass is 6 s, five passes of both rungs 45 s.
_WIRE = {
    "full": {"flooding": 64, "consensus": 80, "gossip": 36, "lv_consensus": 80, "flooding-churn": 32},
    "quick": {"flooding": 12, "consensus": 16, "gossip": 12, "lv_consensus": 12, "flooding-churn": 8},
}


def _wire_ladder(seed: int, size: str) -> list:
    sizes = _WIRE[size]
    rng = _rng(seed, "wire-ladder")
    n = sizes["flooding"]
    dense = Instance(
        "flooding",
        {"name": "flooding", "inputs": [rng.randrange(2**16) for _ in range(n)], "t": 3},
        seed=_draw_seed(rng),
    )
    n = sizes["consensus"]
    barrier = Instance(
        "consensus",
        {"name": "consensus", "inputs": [rng.randint(0, 1) for _ in range(n)], "t": n // 12},
        seed=_draw_seed(rng),
    )
    n = sizes["gossip"]
    tag = rng.randrange(10**6)
    bytes_bound = Instance(
        "gossip",
        {"name": "gossip", "rumors": [f"rumor-{tag:06d}-{i:04d}" for i in range(n)], "t": 2},
        seed=_draw_seed(rng),
        # One committee node (the 5 t smallest names) and one ordinary node
        # crash at fixed rounds; the seed picks which.  This instance is
        # 97 % of the workload's bits, each crashed committee node cuts them
        # by 7 % and an early crash by more, so a random schedule would make
        # the pass times of different seeds incomparable.
        scenario=Scenario(
            n=n,
            name=f"wire-{seed}-gossip",
            crashes=[(rng.randrange(10), 8, None), (rng.randrange(10, n), 48, None)],
        ),
    )
    n = sizes["lv_consensus"]
    coordinator = Instance(
        "lv_consensus",
        {
            "name": "lv_consensus",
            "inputs": [rng.randrange(2**64) for _ in range(n)],
            "t": n // 5,
            "width": 64,
        },
        seed=_draw_seed(rng),
    )
    n = sizes["flooding-churn"]
    crashed, churned = rng.sample(range(n), 2)
    rejoin = Instance(
        "flooding-churn",
        {"name": "flooding", "inputs": [rng.randrange(2**16) for _ in range(n)], "t": 3},
        seed=_draw_seed(rng),
        # Rejoin at round 3 of 4 so the run still terminates; this is the
        # REJOIN barrier leg of the net runtime.
        scenario=Scenario(
            n=n,
            name=f"wire-{seed}-churn",
            crashes=[(crashed, 1, None)],
            churn=[(churned, 1, 3, None)],
        ),
    )
    return [dense, barrier, bytes_bound, coordinator, rejoin]


# -- serve-mixed -------------------------------------------------------------

#: submissions per pass (a multiple of 4: the class shares are exact).
_SERVE = {"full": 120, "quick": 16}


def _serve_mixed(seed: int, size: str) -> list:
    count = _SERVE[size]
    rng = _rng(seed, "serve-mixed")
    instances = []
    # The repro.serve.loadgen recipe shapes, so numbers relate to
    # BENCH_serve.json: 50 % steady flooding, 25 % gossip, 25 % churn.
    for _ in range(count // 2):
        instances.append(
            Instance(
                "flooding",
                {"name": "flooding", "inputs": [rng.randint(0, 1) for _ in range(4)], "t": 1},
                crashes="early",
                seed=_draw_seed(rng),
            )
        )
    for k in range(count // 4):
        tag = rng.randrange(10**6)
        instances.append(
            Instance(
                "gossip",
                {"name": "gossip", "rumors": [f"r{tag:06d}-{j}" for j in range(6)], "t": 1},
                crashes=None,
                seed=_draw_seed(rng),
            )
        )
    for k in range(count // 4):
        crashed, churned = rng.sample(range(8), 2)
        instances.append(
            Instance(
                "churn",
                {"name": "flooding", "inputs": [rng.randint(0, 1) for _ in range(8)], "t": 3},
                seed=_draw_seed(rng),
                scenario=Scenario(
                    n=8,
                    crashes=[(crashed, 1, None)],
                    churn=[(churned, 1, 3, None)],
                ),
            )
        )
    rng.shuffle(instances)  # the submission order
    return instances


# -- registry ----------------------------------------------------------------

#: name -> (rungs, builder, why).  ``why`` is the reason the workload exists;
#: the one-line form in BENCHMARK.json is a summary of it.
WORKLOADS = {
    "dense-flood": (
        ("sim", "vec"),
        _dense_flood,
        "Flooding consensus at n=800, t=3, random crashes, 1-bit inputs: ~2.5 M "
        "delivered messages per instance, in 4 rounds.  sim.engine's "
        "send/deliver/accounting hot path does nearly all the work; protocol "
        "logic, payload sizing, graphs and codec do almost none.",
    ),
    "family-suite": (
        ("sim", "vec"),
        _family_suite,
        "All ten repro.check.driver.FAMILIES at paper-range t/n, every third "
        "instance under an omission+partition+churn scenario.  The same engine "
        "used the opposite way: hundreds of rounds, sparse overlays, "
        "fast-forward, payloads up to 1e8 bits, so core/baselines logic, "
        "payload_bits, api building and graphs dominate; on vec seven of ten "
        "families fall back to the Python loop, the floor a new kernel must move.",
    ),
    "wire-ladder": (
        ("net", "tcp"),
        _wire_ladder,
        "Five instances on the asyncio runtime: dense flooding (frame count), "
        "consensus (barrier-bound), gossip (codec-bytes-bound), lv_consensus "
        "(one coordinator multicast per round) and flooding under crash+rejoin "
        "(REJOIN barrier leg).  net.codec, net.transport and net.runtime do the "
        "work and sim.engine none; tcp minus net isolates the socket path.",
    ),
    "serve-mixed": (
        ("run_many", "serve"),
        _serve_mixed,
        "Tiny multiplexed sessions on one event loop: 50 % flooding n=4, 25 % "
        "gossip n=6, 25 % flooding n=8 under crash+churn, through the in-process "
        "run_many facade and through a python -m repro.serve child with one "
        "ServeClient, closed loop, window 16.  Per-session fixed cost, "
        "prepare_recipe, control frames and queueing dominate; payload work is "
        "negligible.",
    ),
}


def build_workload(name: str, seed: int, size: str = "full") -> Workload:
    """Generate the instance list of ``name`` for ``seed``."""
    rungs, builder, why = WORKLOADS[name]
    return Workload(name, rungs, why, builder(seed, size))
