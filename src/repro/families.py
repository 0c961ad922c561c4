"""The protocol-family registry: each family stated once.

The paper's results are a table of problem families, each with its own
fault bound, round count and communication measure.  :data:`REGISTRY`
is that table for this repository: one frozen :class:`Family` record
per family the fuzzer rotates through, holding everything the harness
needs to know about it -- how a recipe dict becomes a process vector,
how a random instance is drawn, where faults are placed, which
predicate makes a run correct, which Table 1 envelope bounds its
communication, and whether a ``backend="vec"`` kernel exists.  Every
consumer (:mod:`repro.api`, :mod:`repro.check`, :mod:`repro.bench`,
:mod:`repro.sim.vec`) looks records up here instead of branching on
names, so adding a family is one process module, one record and its
tests (``docs/api.md``, "Adding a protocol family").

Two names identify a record: the **family** name the fuzzer and the
certificates use (``"lv-consensus"``) and the **recipe** name carried in
``{"name": ...}`` recipe dicts and traces (``"lv_consensus"``).  Records
may share a recipe name -- the two consensus algorithms do -- in which
case they agree on every recipe-level field (builder, ``max_rounds``,
``crash_faults``, safety predicate) and :func:`by_recipe` returns the
first.

>>> by_family("lv-consensus").recipe
'lv_consensus'
>>> [family.family for family in REGISTRY if family.recipe == "consensus"]
['consensus-few', 'consensus-many']
>>> by_recipe("scv").required, dict(by_recipe("scv").optional)
(('n', 't', 'holders'), {'common_value': 1, 'overlay_seed': 0})
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional, Sequence

from repro.auth.signatures import SignatureService
from repro.baselines.approximate import (
    ApproximateConsensusProcess,
    approximate_phase_count,
)
from repro.baselines.flooding_consensus import FloodingConsensusProcess
from repro.baselines.lv_consensus import LVConsensusProcess
from repro.core.aea import AEAProcess, aea_overlay
from repro.core.byzantine import (
    ABConsensusProcess,
    EquivocatingSource,
    SilentByzantine,
    SpammingByzantine,
)
from repro.core.checkpointing import CheckpointingProcess
from repro.core.consensus import (
    FewCrashesConsensusProcess,
    ManyCrashesConsensusProcess,
    mcc_overlay,
)
from repro.core.gossip import GossipProcess, gossip_overlay
from repro.core.params import ProtocolParams
from repro.core.scv import SCVProcess
from repro.graphs.families import spread_graph
from repro.properties import (
    check_aea,
    check_approximate,
    check_checkpointing,
    check_consensus,
    check_gossip,
    check_scv,
)
from repro.sim.process import Process

__all__ = [
    "BYZANTINE_BEHAVIOURS",
    "Family",
    "REGISTRY",
    "build_ab_consensus_processes",
    "build_aea_processes",
    "build_approximate_processes",
    "build_checkpointing_processes",
    "build_consensus_processes",
    "build_flooding_processes",
    "build_gossip_processes",
    "build_lv_consensus_processes",
    "build_scv_processes",
    "by_family",
    "by_recipe",
    "instance_shape",
    "lv_default_width",
]


@dataclass(frozen=True, kw_only=True)
class Family:
    """Everything the harness knows about one protocol family."""

    #: name used by the fuzzer, the certificates and the bench series
    family: str
    #: ``name`` of the recipe dicts (and traces) that run this family
    recipe: str
    #: class of the family's (honest) processes
    process: type
    #: ``build_*_processes``: recipe arguments -> ``(processes, horizon)``.
    #: Its signature *is* the recipe schema (see :attr:`required`).
    builder: Callable[..., tuple[list[Process], int]]
    #: default safety bound of the run path
    max_rounds: int = 100_000
    #: half-open range the fuzzer draws ``n`` from, and the exclusive
    #: cap on ``t`` for a drawn ``n``
    n_range: tuple[int, int]
    t_cap: Callable[[int], int]
    #: ``(rng, seed, n, t)`` -> the recipe's arguments (``name`` excluded)
    sample: Callable[[random.Random, int, int, int], dict]
    #: round window the fuzzer and the search place faults in
    fault_horizon: Callable[[ProtocolParams], int]
    #: ``(recipe, result)`` -> raises ``PropertyViolation`` on an
    #: incorrect run
    safety: Callable[[dict, Any], None]
    #: ``(measure, constant)``: the communication measure the bound is
    #: stated in (``"bits"`` / ``"messages"``) and the calibrated
    #: headroom constant over the envelope
    bound: tuple[str, float]
    #: the Table 1 envelope expression ``(params, recipe) -> float``
    envelope: Callable[[ProtocolParams, dict], float]
    #: ``"module:Class"`` of the vec step kernel, imported on first use
    #: (kernels need numpy, which is optional)
    kernel: Optional[str] = None
    #: whether the fault budget ``t`` is spent on crashes; false only
    #: where it is spent on a Byzantine set, and then ``crashes=`` is
    #: ignored by the run path
    crash_faults: bool = True

    @cached_property
    def required(self) -> tuple[str, ...]:
        """Recipe keys every recipe must carry: the builder's
        parameters without a default."""
        parameters = inspect.signature(self.builder).parameters.values()
        return tuple(p.name for p in parameters if p.default is p.empty)

    @cached_property
    def optional(self) -> dict[str, Any]:
        """Recipe keys that may be omitted, with their defaults: the
        builder's parameters that have one."""
        parameters = inspect.signature(self.builder).parameters.values()
        return {p.name: p.default for p in parameters if p.default is not p.empty}

    def recipe_args(self, recipe: dict) -> dict:
        """``recipe`` minus its name, checked against the schema.

        Raises ``ValueError`` naming the recipe, the offending keys and
        the accepted ones -- recipes arrive from trace files and from the
        run-server's socket, so a typo must not build silently.
        """
        args = {key: value for key, value in recipe.items() if key != "name"}
        missing = [key for key in self.required if key not in args]
        unknown = sorted(set(args) - set(self.required) - set(self.optional))
        if missing or unknown:
            raise ValueError(
                f"bad {self.recipe!r} recipe: missing keys {missing}, "
                f"unknown keys {unknown}; required {list(self.required)}, "
                f"optional {list(self.optional)}"
            )
        return args


# -- process builders --------------------------------------------------------

#: Byzantine behaviour constructors selectable by name.
BYZANTINE_BEHAVIOURS: dict[str, Callable] = {
    "silent": lambda pid, n, params, service: SilentByzantine(pid, n),
    "equivocate": EquivocatingSource,
    "spam": SpammingByzantine,
}


def _little_horizon(params: ProtocolParams) -> int:
    return params.little_flood_rounds + params.little_probe_rounds


def _mcc_horizon(params: ProtocolParams) -> int:
    return params.mcc_flood_rounds + params.mcc_probe_rounds


def _gossip_horizon(params: ProtocolParams) -> int:
    return params.gossip_phase_count * (2 + params.little_probe_rounds)


def build_consensus_processes(
    inputs: Sequence[int],
    t: int,
    *,
    algorithm: str = "auto",
    overlay_seed: int = 0,
) -> tuple[list[Process], int]:
    """Construct the consensus process vector and its crash horizon.

    Deterministic in ``(inputs, t, algorithm, overlay_seed)``, so worker
    processes of a distributed run can rebuild identical shards.
    Returns ``(processes, horizon)`` where ``horizon`` bounds the rounds
    in which a generated crash schedule places faults.
    """
    n = len(inputs)
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    if algorithm == "auto":
        algorithm = "few" if 5 * t < n else "many"
    if algorithm == "few":
        if 5 * t >= n:
            raise ValueError(f"Few-Crashes-Consensus requires t < n/5, got t={t}, n={n}")
        graph = aea_overlay(params)
        spread = spread_graph(n, params.seed)
        processes: list[Process] = [
            FewCrashesConsensusProcess(
                pid, params, inputs[pid], aea_graph=graph, spread=spread
            )
            for pid in range(n)
        ]
        return processes, _little_horizon(params)
    if algorithm == "many":
        graph = mcc_overlay(params)
        processes = [
            ManyCrashesConsensusProcess(pid, params, inputs[pid], graph=graph)
            for pid in range(n)
        ]
        return processes, _mcc_horizon(params)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def build_aea_processes(
    inputs: Sequence[int], t: int, *, overlay_seed: int = 0
) -> tuple[list[Process], int]:
    """Almost-Everywhere-Agreement process vector; see
    :func:`build_consensus_processes` for the contract."""
    n = len(inputs)
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    graph = aea_overlay(params)
    processes: list[Process] = [
        AEAProcess(pid, params, inputs[pid], graph) for pid in range(n)
    ]
    return processes, _little_horizon(params)


def build_scv_processes(
    n: int,
    t: int,
    holders: Sequence[int],
    common_value: Any = 1,
    *,
    overlay_seed: int = 0,
) -> tuple[list[Process], int]:
    """Spread-Common-Value process vector; see
    :func:`build_consensus_processes` for the contract."""
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    holder_set = set(holders)
    spread = spread_graph(n, params.seed)
    processes: list[Process] = [
        SCVProcess(pid, params, common_value if pid in holder_set else None, spread)
        for pid in range(n)
    ]
    return processes, params.scv_spread_rounds


def build_gossip_processes(
    rumors: Sequence[Any], t: int, *, overlay_seed: int = 0
) -> tuple[list[Process], int]:
    """Gossip process vector; see :func:`build_consensus_processes` for
    the contract."""
    n = len(rumors)
    if 5 * t >= n:
        raise ValueError(f"Gossip requires t < n/5, got t={t}, n={n}")
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    graph = gossip_overlay(params)
    processes: list[Process] = [
        GossipProcess(pid, params, rumors[pid], graph=graph) for pid in range(n)
    ]
    return processes, _gossip_horizon(params)


def build_checkpointing_processes(
    n: int, t: int, *, overlay_seed: int = 0
) -> tuple[list[Process], int]:
    """Checkpointing process vector; see
    :func:`build_consensus_processes` for the contract."""
    if 5 * t >= n:
        raise ValueError(f"Checkpointing requires t < n/5, got t={t}, n={n}")
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    graph = gossip_overlay(params)
    spread = spread_graph(n, params.seed)
    processes: list[Process] = [
        CheckpointingProcess(pid, params, graph=graph, spread=spread)
        for pid in range(n)
    ]
    return processes, _gossip_horizon(params)


def build_ab_consensus_processes(
    inputs: Sequence[int],
    t: int,
    *,
    byzantine: Sequence[int] = (),
    behaviour: str = "equivocate",
    overlay_seed: int = 0,
) -> tuple[list[Process], int]:
    """Authenticated-Byzantine consensus process vector; see
    :func:`build_consensus_processes` for the contract.

    ``byzantine`` pids get the ``behaviour`` strategy from
    :data:`BYZANTINE_BEHAVIOURS` instead of the honest
    ``ABConsensusProcess``; all share one simulated
    :class:`~repro.auth.signatures.SignatureService`.  The returned
    horizon is 1: the Byzantine runs use no crash adversary, so no
    schedule is generated from it.
    """
    n = len(inputs)
    if 2 * t >= n:
        raise ValueError(f"AB-Consensus requires t < n/2, got t={t}, n={n}")
    byz = frozenset(byzantine)
    if len(byz) > t:
        raise ValueError(f"{len(byz)} Byzantine nodes exceed the bound t={t}")
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    service = SignatureService(n)
    spread = spread_graph(n, params.seed)
    make_byz = BYZANTINE_BEHAVIOURS[behaviour]
    processes: list[Process] = []
    for pid in range(n):
        if pid in byz:
            processes.append(make_byz(pid, n, params, service))
        else:
            processes.append(
                ABConsensusProcess(pid, params, inputs[pid], service, spread=spread)
            )
    return processes, 1


def build_flooding_processes(
    inputs: Sequence[int], t: int
) -> tuple[list[Process], int]:
    """Flooding-consensus baseline process vector; see
    :func:`build_consensus_processes` for the contract.

    The classical ``t + 1``-round flood (every node multicasts its
    minimum to everyone, every round): quadratic communication, any
    ``t < n``.  It is the textbook baseline the paper's linear
    protocols are measured against, and the most regular family the
    ``backend="vec"`` kernels accelerate.
    """
    n = len(inputs)
    if not 0 <= t < n:
        raise ValueError(
            f"flooding consensus requires 0 <= t < n, got t={t}, n={n}"
        )
    processes: list[Process] = [
        FloodingConsensusProcess(pid, n, t, inputs[pid]) for pid in range(n)
    ]
    return processes, t + 1


def build_approximate_processes(
    inputs: Sequence[float],
    t: int,
    *,
    eps: float = 1.0,
    mode: str = "midpoint",
) -> tuple[list[Process], int]:
    """Approximate-consensus process vector; see
    :func:`build_consensus_processes` for the contract.

    Phase-based averaging toward ε-agreement
    (:class:`~repro.baselines.approximate.ApproximateConsensusProcess`):
    real-valued inputs, decisions within ``eps`` of each other and
    inside the input range.  The schedule is ``t + 1 + phases`` rounds
    with ``phases`` derived from the input spread and ``eps``
    (:func:`~repro.baselines.approximate.approximate_phase_count`), so
    the horizon -- like the recipe -- is a pure function of the
    arguments.  Any ``t < n``.
    """
    n = len(inputs)
    if not 0 <= t < n:
        raise ValueError(
            f"approximate consensus requires 0 <= t < n, got t={t}, n={n}"
        )
    phases = approximate_phase_count(inputs, eps)
    processes: list[Process] = [
        ApproximateConsensusProcess(
            pid, n, t, inputs[pid], eps, phases, mode=mode
        )
        for pid in range(n)
    ]
    return processes, t + 1 + phases


def lv_default_width(inputs: Sequence[int]) -> int:
    """The ``width`` lv-consensus runs at when none is given: the bit
    length of the widest input."""
    return max(1, max((int(v).bit_length() for v in inputs), default=0))


def build_lv_consensus_processes(
    inputs: Sequence[int], t: int, *, width: Optional[int] = None
) -> tuple[list[Process], int]:
    """Liang–Vaidya-slot multi-valued consensus process vector; see
    :func:`build_consensus_processes` for the contract.

    Rotating-coordinator consensus on ``width``-bit values
    (:class:`~repro.baselines.lv_consensus.LVConsensusProcess`),
    measured in payload bits.  ``width`` defaults to the widest input
    and every input must fit in it; any ``t < n``.
    """
    n = len(inputs)
    if not 0 <= t < n:
        raise ValueError(
            f"lv-consensus requires 0 <= t < n, got t={t}, n={n}"
        )
    if width is None:
        width = lv_default_width(inputs)
    oversized = [v for v in inputs if v < 0 or int(v).bit_length() > width]
    if oversized:
        raise ValueError(
            f"inputs must be non-negative and fit in width={width} bits, "
            f"got {oversized[:5]}"
        )
    processes: list[Process] = [
        LVConsensusProcess(pid, n, t, inputs[pid], width) for pid in range(n)
    ]
    return processes, t + 1


# -- instance samplers --------------------------------------------------------
#
# The fuzzer's instance distribution.  Each sampler consumes ``rng`` in a
# fixed order after ``n`` and ``t`` were drawn; the seeds 0-2 digests in
# tests/test_search.py freeze that stream.


def _bits(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(0, 1) for _ in range(n)]


def _sample_scv(rng: random.Random, seed: int, n: int, t: int) -> dict:
    holders = sorted(rng.sample(range(n), max(3 * n // 5 + 1, 7 * n // 10)))
    return {"n": n, "t": t, "holders": holders, "common_value": 1}


def _sample_ab_consensus(rng: random.Random, seed: int, n: int, t: int) -> dict:
    byz_cap = min(t, max(1, int(n**0.5)))
    byz = sorted(rng.sample(range(n), rng.randrange(0, byz_cap + 1)))
    return {
        "inputs": _bits(rng, n),
        "t": t,
        "byzantine": byz,
        "behaviour": rng.choice(("silent", "equivocate", "spam")),
    }


def _sample_approximate(rng: random.Random, seed: int, n: int, t: int) -> dict:
    return {
        # Four-decimal floats survive the JSON round-trip of traces and
        # shrink artifacts exactly (repr-based float serialisation).
        "inputs": [round(rng.uniform(0.0, 100.0), 4) for _ in range(n)],
        "t": t,
        "eps": rng.choice((0.5, 1.0, 2.0, 4.0)),
        "mode": rng.choice(("midpoint", "mean")),
    }


def _sample_lv_consensus(rng: random.Random, seed: int, n: int, t: int) -> dict:
    width = rng.choice((16, 64, 256))
    inputs = [rng.randrange(0, 2**width) for _ in range(n)]
    return {"inputs": inputs, "t": t, "width": width}


# -- safety predicates and Table 1 envelopes ----------------------------------


def _agreement(recipe: dict, result) -> None:
    check_consensus(result, recipe["inputs"])


def _probing(params: ProtocolParams) -> float:
    """Committee probing over the little overlay, the term every
    envelope of the paper's own algorithms shares."""
    return (
        params.little_count
        * params.little_degree
        * (params.little_probe_rounds + 1)
    )


def _gossip_phase(params: ProtocolParams) -> float:
    return params.little_count * params.little_degree * params.little_probe_rounds


def _approximate_envelope(params: ProtocolParams, recipe: dict) -> float:
    # Every node multicasts one 64-bit float estimate to everyone for
    # the full t + 1 + phases schedule.
    phases = approximate_phase_count(recipe["inputs"], recipe["eps"])
    return 64.0 * params.n * (params.n - 1) * (params.t + 1 + phases)


# -- the registry -------------------------------------------------------------
#
# Constants are practical-instantiation headroom over the envelope
# expressions (overlay degrees are capped, committees have floors),
# calibrated on seeded fuzz sweeps and then doubled; a certificate
# records the constant and the observed ratio per run, so a drifting
# implementation shows up as ratios creeping toward 1.0 before it
# becomes a violation.
#
# Order matters: ``sample_config`` picks ``REGISTRY[index % 10]``, and the
# digest pins in tests/test_search.py address families by *name*, so a
# new family is appended, never inserted.

REGISTRY: tuple[Family, ...] = (
    Family(
        family="consensus-few",
        recipe="consensus",
        process=FewCrashesConsensusProcess,
        builder=build_consensus_processes,
        max_rounds=200_000,
        n_range=(20, 56),
        t_cap=lambda n: (n - 1) // 5 + 1,
        sample=lambda rng, seed, n, t: {
            "inputs": _bits(rng, n), "t": t, "algorithm": "few"
        },
        fault_horizon=_little_horizon,
        safety=_agreement,
        bound=("bits", 8.0),
        envelope=lambda params, recipe: _probing(params) + 20.0 * params.n,
    ),
    Family(
        family="consensus-many",
        recipe="consensus",
        process=ManyCrashesConsensusProcess,
        builder=build_consensus_processes,
        max_rounds=200_000,
        n_range=(16, 40),
        t_cap=lambda n: max(2, n // 2),
        sample=lambda rng, seed, n, t: {
            "inputs": _bits(rng, n), "t": t, "algorithm": "many"
        },
        fault_horizon=_mcc_horizon,
        safety=_agreement,
        bound=("bits", 8.0),
        # Flooding over the degree-d(α) overlay plus probing and the
        # phase/recovery parts; candidates are single bits here.
        envelope=lambda params, recipe: (
            params.mcc_degree * params.n * (params.mcc_probe_rounds + 4)
            + 20.0 * params.n
        ),
    ),
    Family(
        family="aea",
        recipe="aea",
        process=AEAProcess,
        builder=build_aea_processes,
        n_range=(24, 60),
        t_cap=lambda n: max(2, n // 6 + 1),
        sample=lambda rng, seed, n, t: {"inputs": _bits(rng, n), "t": t},
        fault_horizon=_little_horizon,
        safety=lambda recipe, result: check_aea(result, recipe["inputs"]),
        bound=("messages", 6.0),
        envelope=lambda params, recipe: _probing(params) + 4.0 * params.n,
    ),
    Family(
        family="scv",
        recipe="scv",
        process=SCVProcess,
        builder=build_scv_processes,
        n_range=(20, 56),
        t_cap=lambda n: (n - 1) // 5 + 1,
        sample=_sample_scv,
        fault_horizon=lambda params: params.scv_spread_rounds,
        safety=lambda recipe, result: check_scv(
            result, recipe.get("common_value", 1)
        ),
        bound=("messages", 8.0),
        envelope=lambda params, recipe: (
            4.0 * params.n
            + 20.0 * params.t * math.log2(max(2.0, params.t))
        ),
    ),
    Family(
        family="gossip",
        recipe="gossip",
        process=GossipProcess,
        builder=build_gossip_processes,
        n_range=(20, 50),
        t_cap=lambda n: (n - 1) // 5 + 1,
        sample=lambda rng, seed, n, t: {
            "rumors": [f"rumor-{seed}-{i}" for i in range(n)], "t": t
        },
        fault_horizon=_gossip_horizon,
        safety=lambda recipe, result: check_gossip(result, recipe["rumors"]),
        bound=("messages", 6.0),
        envelope=lambda params, recipe: (
            4.0 * params.n
            + 2.0 * params.gossip_phase_count * _gossip_phase(params)
        ),
        kernel="repro.sim.vec.gossip:GossipKernel",
    ),
    Family(
        family="checkpointing",
        recipe="checkpointing",
        process=CheckpointingProcess,
        builder=build_checkpointing_processes,
        max_rounds=200_000,
        n_range=(20, 50),
        t_cap=lambda n: (n - 1) // 5 + 1,
        sample=lambda rng, seed, n, t: {"n": n, "t": t},
        fault_horizon=_gossip_horizon,
        safety=lambda recipe, result: check_checkpointing(result),
        bound=("messages", 6.0),
        envelope=lambda params, recipe: (
            8.0 * params.n
            + 2.0 * params.gossip_phase_count * _gossip_phase(params)
            + _probing(params)
        ),
        kernel="repro.sim.vec.checkpointing:CheckpointingKernel",
    ),
    Family(
        family="ab-consensus",
        recipe="ab_consensus",
        process=ABConsensusProcess,
        builder=build_ab_consensus_processes,
        crash_faults=False,
        n_range=(16, 40),
        t_cap=lambda n: max(2, (n - 1) // 2),
        sample=_sample_ab_consensus,
        # The builder's horizon is 1 because no crash schedule is ever
        # generated for this family; the fuzzer still needs a window to
        # place its (out-of-model) link faults in, and 8 rounds covers
        # the Dolev-Strong phases at the sampled sizes.
        fault_horizon=lambda params: 8,
        safety=_agreement,
        bound=("messages", 150.0),
        envelope=lambda params, recipe: float(params.t * params.t + params.n),
    ),
    Family(
        family="flooding",
        recipe="flooding",
        process=FloodingConsensusProcess,
        builder=build_flooding_processes,
        n_range=(20, 57),
        t_cap=lambda n: max(2, n // 4),
        sample=lambda rng, seed, n, t: {
            "inputs": [rng.randrange(0, 2**16) for _ in range(n)], "t": t
        },
        fault_horizon=lambda params: params.t + 1,
        safety=_agreement,
        bound=("messages", 2.0),
        # Every operational node multicasts to everyone for t + 1 rounds.
        envelope=lambda params, recipe: float(
            params.n * params.n * (params.t + 1)
        ),
        kernel="repro.sim.vec.flooding:FloodingKernel",
    ),
    Family(
        family="approximate",
        recipe="approximate",
        process=ApproximateConsensusProcess,
        builder=build_approximate_processes,
        n_range=(16, 44),
        t_cap=lambda n: max(2, n // 3),
        sample=_sample_approximate,
        # The builder's horizon is t + 1 + phases, but phases depends on
        # the inputs and eps, which ProtocolParams does not carry; the
        # fuzzer uses the widest sampled schedule instead (eps=0.5 over
        # a 100-wide input range gives ceil(log2(200)) = 8 phases).
        fault_horizon=lambda params: params.t + 9,
        safety=lambda recipe, result: check_approximate(
            result, recipe["inputs"], recipe["eps"]
        ),
        bound=("bits", 2.0),
        envelope=_approximate_envelope,
    ),
    Family(
        family="lv-consensus",
        recipe="lv_consensus",
        process=LVConsensusProcess,
        builder=build_lv_consensus_processes,
        n_range=(16, 48),
        t_cap=lambda n: max(2, n // 3),
        sample=_sample_lv_consensus,
        fault_horizon=lambda params: params.t + 1,
        safety=_agreement,
        bound=("bits", 2.0),
        # One width-bit coordinator multicast per round: linear in n,
        # the per-bit budget this family exists to pin.
        envelope=lambda params, recipe: float(
            (params.t + 1) * (params.n - 1) * recipe["width"]
        ),
    ),
)

_BY_FAMILY = {family.family: family for family in REGISTRY}
#: first record per recipe name (reversed: the first one written wins)
_BY_RECIPE = {family.recipe: family for family in reversed(REGISTRY)}


def by_family(name: str) -> Family:
    """The record of fuzz family ``name`` (``ValueError`` if unknown)."""
    if name not in _BY_FAMILY:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(_BY_FAMILY)}"
        )
    return _BY_FAMILY[name]


def by_recipe(name: Optional[str]) -> Family:
    """The (first) record run by recipes named ``name`` (``ValueError``
    if unknown)."""
    if name not in _BY_RECIPE:
        raise ValueError(
            f"unknown protocol recipe {name!r}; choose from {sorted(_BY_RECIPE)}"
        )
    return _BY_RECIPE[name]


def instance_shape(recipe: dict) -> tuple[int, int]:
    """``(n, t)`` of the instance a recipe describes."""
    for sized in ("inputs", "rumors"):
        if sized in recipe:
            return len(recipe[sized]), recipe["t"]
    return recipe["n"], recipe["t"]
