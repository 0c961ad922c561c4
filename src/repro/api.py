"""High-level one-call entry points.

Each ``run_*`` helper builds the parameter derivation, the deterministic
overlay graphs, the processes and the adversary, executes the protocol
on the selected backend, and returns the
:class:`~repro.sim.engine.RunResult` (whose ``metrics`` carry the
paper's round/message/bit measures).  Correctness checking is left to
the caller -- :mod:`repro.properties` has one predicate per problem --
so benchmarks can time pure executions.

There is one run path: every ``run_*`` states its family's recipe dict
and hands it to :func:`run_recipe`, which validates it against the
family's record in :mod:`repro.families`, builds the processes,
resolves the fault schedule and executes.  The execution keywords are
therefore the same for every family and are documented once (appended
to each entry point's docstring).

Backends
--------
``backend`` selects the execution substrate; the same processes, the
same seeded crash schedule and the same metrics on all four:

* ``"sim"`` (default) -- the lock-step simulator
  (:class:`~repro.sim.engine.Engine`); ``optimized`` picks its round
  loop.
* ``"vec"`` -- numpy structure-of-arrays kernels (:mod:`repro.sim.vec`)
  for the families whose record carries one, the optimized engine for
  everything else; needs the optional ``[vec]`` extra.
* ``"net"`` -- the asyncio runtime (:mod:`repro.net`) over the
  in-memory hub transport: concurrent node tasks, real message frames,
  a barrier per round.
* ``"tcp"`` -- the asyncio runtime over loopback TCP sockets (one OS
  process; :func:`repro.net.drive_session` / :func:`repro.net.host_nodes_tcp`
  split coordinator and node shards across OS processes).

:data:`BACKENDS` names the five runs a checker or a bench row compares
-- ``sim-opt``, ``sim-ref``, ``net``, ``tcp``, ``vec`` -- by the
keywords that select each, the labels traces record.

The ``build_*_processes`` helpers (defined next to the registry in
:mod:`repro.families`, re-exported here) expose the process
construction on its own so multi-OS-process deployments can rebuild
identical process shards from the same parameters (see
``examples/net_consensus.py``).

Fault scenarios and traces
--------------------------
Every ``run_*`` also accepts the extended fault machinery:

* ``scenario=`` -- a declarative :class:`repro.scenarios.Scenario`
  (omission / partition / churn on top of crashes); replaces the
  ``crashes`` schedule when given.
* ``record_trace=`` -- capture the execution into a
  :class:`repro.trace.Trace` (``True`` attaches it as ``result.trace``;
  a path additionally writes the JSON artifact).
* ``replay=`` -- re-execute a recorded trace under its fault schedule,
  verifying every delivered message and the final metrics bit-for-bit
  (:class:`repro.trace.TraceDivergence` on any difference).

>>> from repro import run_consensus
>>> result = run_consensus([0, 1] * 50, t=15, crashes="random", seed=1)
>>> set(result.correct_decisions().values())
{1}
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.families import (
    BYZANTINE_BEHAVIOURS,
    build_ab_consensus_processes,
    build_aea_processes,
    build_approximate_processes,
    build_checkpointing_processes,
    build_consensus_processes,
    build_flooding_processes,
    build_gossip_processes,
    build_lv_consensus_processes,
    build_scv_processes,
    by_recipe,
    instance_shape,
    lv_default_width,
)
from repro.obs.recorder import coerce_recorder
from repro.scenarios import Scenario
from repro.sim.adversary import CrashAdversary, NoFailures, crash_schedule
from repro.sim.engine import Engine, RunResult
from repro.sim.process import Process
from repro.trace import Trace, TraceChecker, TraceRecorder

__all__ = [
    "BACKENDS",
    "BYZANTINE_BEHAVIOURS",
    "PreparedRun",
    "build_ab_consensus_processes",
    "build_aea_processes",
    "build_approximate_processes",
    "build_checkpointing_processes",
    "build_consensus_processes",
    "build_flooding_processes",
    "build_gossip_processes",
    "build_lv_consensus_processes",
    "build_recipe_processes",
    "build_scv_processes",
    "prepare_recipe",
    "run_recipe",
    "run_aea",
    "run_ab_consensus",
    "run_approximate",
    "run_checkpointing",
    "run_consensus",
    "run_flooding",
    "run_gossip",
    "run_lv_consensus",
    "run_scv",
]

#: Backend name -> the :func:`run_recipe` / :func:`repro.trace.replay_trace`
#: keywords that run it.  ``sim-opt`` is the optimized engine loop,
#: ``sim-ref`` the reference (spec) loop.
BACKENDS = {
    "sim-opt": {"backend": "sim"},
    "sim-ref": {"backend": "sim", "optimized": False},
    "net": {"backend": "net"},
    "tcp": {"backend": "tcp"},
    "vec": {"backend": "vec"},
}


def _resolve_faults(
    crashes: Optional[str | CrashAdversary | Scenario],
    scenario: Optional[Scenario | dict],
    n: int,
    t: int,
    seed: int,
    horizon: int,
) -> tuple[CrashAdversary, Optional[Scenario]]:
    """Normalise the two fault arguments into ``(adversary, scenario)``.

    ``scenario`` (a :class:`Scenario` or its ``to_dict()`` form, the
    JSON-safe shape a serve client submits) wins over ``crashes``; a
    :class:`Scenario` passed as ``crashes`` is promoted.  The returned
    scenario (if any) is recorded into traces as provenance.
    """
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    if scenario is None and isinstance(crashes, Scenario):
        scenario = crashes
    if scenario is not None:
        if scenario.n != n:
            raise ValueError(
                f"scenario was built for n={scenario.n}, protocol has n={n}"
            )
        return scenario.adversary(), scenario
    if crashes is None:
        return NoFailures(), None
    if isinstance(crashes, CrashAdversary):
        return crashes, None
    schedule = crash_schedule(
        n, t, seed=seed, kind=crashes, max_round=max(1, horizon)
    )
    return schedule, None


def _execute(
    processes: Sequence[Process],
    adversary: Optional[CrashAdversary],
    *,
    backend: str,
    byzantine: frozenset[int] = frozenset(),
    max_rounds: int,
    fast_forward: bool = True,
    optimized: bool = True,
    record_trace: bool | str | os.PathLike = False,
    replay: Optional[Any] = None,
    protocol: Optional[dict] = None,
    scenario: Optional[Scenario] = None,
    telemetry: Any = None,
) -> RunResult:
    """Dispatch one execution to the selected backend.

    ``record_trace`` attaches a :class:`~repro.trace.TraceRecorder`
    and seals the resulting :class:`~repro.trace.Trace` onto
    ``result.trace`` (writing it to disk when a path is given);
    ``replay`` overrides ``adversary`` with the trace's recorded fault
    schedule and verifies the execution through a
    :class:`~repro.trace.TraceChecker`.  ``protocol`` is the JSON-safe
    rebuild recipe recorded into traces so
    :func:`repro.trace.replay_trace` can reconstruct the processes
    standalone.  ``telemetry`` enables wall-clock instrumentation
    (:mod:`repro.obs`): the substrate seals a
    :class:`~repro.obs.RunTelemetry` onto ``result.telemetry``, and a
    path value additionally writes the artifact there (suffix picks the
    format: ``.jsonl`` event log, ``.trace.json`` Chrome trace, else
    telemetry JSON).
    """
    checker: Optional[TraceChecker] = None
    recorder = None
    tel = coerce_recorder(telemetry)
    if replay is not None and record_trace:
        raise ValueError(
            "record_trace and replay are mutually exclusive: a replay is "
            "verified against its trace, not re-recorded (replay first, "
            "then record a fresh run if you need a new artifact)"
        )
    if replay is not None:
        trace = Trace.coerce(replay)
        if trace.n != len(processes):
            raise ValueError(
                f"trace was recorded with n={trace.n}, "
                f"got {len(processes)} processes"
            )
        adversary = trace.adversary()
        checker = recorder = TraceChecker(trace)
    elif record_trace:
        recorder = TraceRecorder(
            len(processes),
            byzantine=byzantine,
            protocol=protocol,
            scenario=scenario.to_dict() if scenario is not None else None,
            max_rounds=max_rounds,
        )

    common = dict(
        byzantine=byzantine,
        max_rounds=max_rounds,
        fast_forward=fast_forward,
        recorder=recorder,
        telemetry=tel,
    )
    if backend == "sim":
        result = Engine(processes, adversary, optimized=optimized, **common).run()
    elif backend == "vec":
        from repro.sim.vec import vec_run

        result = vec_run(processes, adversary, optimized=optimized, **common)
    elif backend in ("net", "tcp"):
        from repro.net import run_protocol_net

        transport = "memory" if backend == "net" else "tcp"
        result = run_protocol_net(
            processes, adversary, transport=transport, **common
        )
    else:
        raise ValueError(
            f"unknown backend {backend!r}; "
            "choose 'sim', 'vec', 'net' or 'tcp'"
        )

    if checker is not None:
        checker.finish(result)
    elif recorder is not None:
        label = backend
        if backend == "sim":
            label = "sim-opt" if optimized else "sim-ref"
        trace = recorder.finish(result, backend=label)
        result.trace = trace
        if isinstance(record_trace, (str, os.PathLike)):
            trace.save(record_trace)
    if (
        result.telemetry is not None
        and isinstance(telemetry, (str, os.PathLike))
    ):
        result.telemetry.write(telemetry)
    return result


# -- the run path -------------------------------------------------------------


def build_recipe_processes(
    protocol: dict,
) -> tuple[list[Process], int, frozenset[int]]:
    """Rebuild ``(processes, horizon, byzantine)`` from a protocol recipe.

    The single builder behind every consumer of recipe dicts -- the run
    path (:func:`run_recipe`, :func:`prepare_recipe`), trace replay
    (:func:`repro.trace.replay_trace`) and the run-server's remote
    workers (:mod:`repro.serve`), which must rebuild process shards
    *identical* to what the submitting client would build locally.
    Deterministic in the recipe, by the same argument as the
    ``build_*_processes`` builders.  The recipe is validated against its
    family's schema first: an unknown ``name``, a missing required key
    or a key the family does not accept raises ``ValueError`` naming
    the recipe and the accepted keys.
    """
    family = by_recipe(protocol.get("name"))
    args = family.recipe_args(protocol)
    processes, horizon = family.builder(**args)
    return processes, horizon, frozenset(args.get("byzantine", ()))


@dataclass(slots=True)
class PreparedRun:
    """One recipe resolved into everything a coordinator needs.

    Produced by :func:`prepare_recipe`: the process vector, the resolved
    adversary, the Byzantine set and the per-family execution defaults
    (``max_rounds``, crash handling).  :func:`run_recipe` executes
    exactly this -- which is what makes a run-server session's result
    ``check_parity``-identical to ``run_recipe(protocol, backend="sim")``
    with the same arguments.
    """

    processes: list[Process]
    adversary: CrashAdversary
    byzantine: frozenset[int]
    scenario: Optional[Scenario]
    max_rounds: int
    fast_forward: bool

    @property
    def n(self) -> int:
        return len(self.processes)


def prepare_recipe(
    protocol: dict,
    *,
    crashes: Optional[str | CrashAdversary | Scenario] = "random",
    seed: int = 0,
    scenario: Optional[Scenario | dict] = None,
    max_rounds: Optional[int] = None,
    fast_forward: bool = True,
) -> PreparedRun:
    """Resolve a recipe + execution parameters into a :class:`PreparedRun`.

    The first three steps of :func:`run_recipe` (validate, build,
    resolve faults) for callers that execute the result themselves --
    the run-server's sessions.  Accepts the execution subset that is
    meaningful for a remote submission; ``max_rounds=None`` means the
    family's default (:attr:`repro.families.Family.max_rounds`: 200k
    for consensus and checkpointing, 100k otherwise), and a family
    whose fault budget is its ``byzantine`` set ignores ``crashes``.
    ``scenario`` may be a :class:`~repro.scenarios.Scenario` or its
    ``to_dict()`` form.
    """
    family = by_recipe(protocol.get("name"))
    processes, horizon, byzantine = build_recipe_processes(protocol)
    n, t = instance_shape(protocol)
    adversary, scenario = _resolve_faults(
        crashes if family.crash_faults else None, scenario, n, t, seed, horizon
    )
    if max_rounds is None:
        max_rounds = family.max_rounds
    return PreparedRun(
        processes, adversary, byzantine, scenario, max_rounds, fast_forward
    )


def run_recipe(
    protocol: dict,
    *,
    crashes: Optional[str | CrashAdversary | Scenario] = "random",
    seed: int = 0,
    max_rounds: Optional[int] = None,
    fast_forward: bool = True,
    optimized: bool = True,
    backend: str = "sim",
    scenario: Optional[Scenario | dict] = None,
    record_trace: bool | str | os.PathLike = False,
    replay: Optional[Any] = None,
    telemetry: bool | str | os.PathLike | Any = False,
) -> RunResult:
    """Execute a protocol recipe: the one run path behind every ``run_*``.

    ``protocol`` is the JSON-safe recipe dict the ``run_*`` helpers
    state and record into traces (and :func:`build_recipe_processes`
    rebuilds) -- protocol ``name`` plus its instance arguments.  The
    keywords are the uniform execution parameters, so one recipe can be
    re-run under different fault schedules and substrates.  This is the
    surface :mod:`repro.check` fuzzes and shrinks through: a fuzz
    configuration is exactly ``(recipe, scenario, backends)``.

    >>> result = run_recipe(
    ...     {"name": "consensus", "inputs": [0, 1] * 10, "t": 3},
    ...     crashes=None,
    ... )
    >>> sorted(set(result.correct_decisions().values()))
    [1]
    """
    prepared = prepare_recipe(
        protocol,
        crashes=crashes,
        seed=seed,
        scenario=scenario,
        max_rounds=max_rounds,
        fast_forward=fast_forward,
    )
    return _execute(
        prepared.processes,
        prepared.adversary,
        backend=backend,
        byzantine=prepared.byzantine,
        max_rounds=prepared.max_rounds,
        fast_forward=fast_forward,
        optimized=optimized,
        record_trace=record_trace,
        replay=replay,
        protocol=dict(protocol),
        scenario=prepared.scenario,
        telemetry=telemetry,
    )


# -- entry points: one recipe each --------------------------------------------


def run_consensus(
    inputs: Sequence[int],
    t: int,
    *,
    algorithm: str = "auto",
    overlay_seed: int = 0,
    **execution,
) -> RunResult:
    """Binary consensus with crashes (Figs. 3-4, Theorems 7-8).

    ``algorithm``: ``"few"`` (requires ``t < n/5``), ``"many"`` (any
    ``t < n``), or ``"auto"`` (``"few"`` when ``t < n/5``).
    """
    return run_recipe(
        {
            "name": "consensus",
            "inputs": list(inputs),
            "t": t,
            "algorithm": algorithm,
            "overlay_seed": overlay_seed,
        },
        **execution,
    )


def run_flooding(inputs: Sequence[int], t: int, **execution) -> RunResult:
    """Baseline flooding consensus (``t + 1`` min-broadcast rounds).

    The quadratic-communication comparator for Table 1; any ``t < n``.
    No overlay graphs are involved, so there is no ``overlay_seed``.
    """
    return run_recipe(
        {"name": "flooding", "inputs": list(inputs), "t": t}, **execution
    )


def run_approximate(
    inputs: Sequence[float],
    t: int,
    *,
    eps: float = 1.0,
    mode: str = "midpoint",
    **execution,
) -> RunResult:
    """Approximate consensus: averaging toward ε-agreement.

    Real-valued inputs; decisions lie within ``eps`` of each other and
    inside ``[min(inputs), max(inputs)]`` (checked by
    :func:`repro.properties.check_approximate`).  ``mode`` selects the
    averaging rule: ``"midpoint"`` (seen-range midpoint) or ``"mean"``
    (arithmetic mean).  Any ``t < n``; no overlay graphs.
    """
    return run_recipe(
        {
            "name": "approximate",
            "inputs": [float(v) for v in inputs],
            "t": t,
            "eps": float(eps),
            "mode": mode,
        },
        **execution,
    )


def run_lv_consensus(
    inputs: Sequence[int],
    t: int,
    *,
    width: Optional[int] = None,
    **execution,
) -> RunResult:
    """Multi-valued consensus measured in payload bits (Liang–Vaidya
    slot): rotating-coordinator broadcast of ``width``-bit values,
    ``(t + 1) · (n - 1)`` messages total.  Any ``t < n``; no overlay
    graphs.
    """
    if width is None:
        width = lv_default_width(inputs)  # traces record the resolved width
    return run_recipe(
        {"name": "lv_consensus", "inputs": list(inputs), "t": t, "width": width},
        **execution,
    )


def run_aea(
    inputs: Sequence[int], t: int, *, overlay_seed: int = 0, **execution
) -> RunResult:
    """Almost-Everywhere-Agreement alone (Fig. 1, Theorem 5)."""
    return run_recipe(
        {
            "name": "aea",
            "inputs": list(inputs),
            "t": t,
            "overlay_seed": overlay_seed,
        },
        **execution,
    )


def run_scv(
    n: int,
    t: int,
    holders: Sequence[int],
    common_value: Any = 1,
    *,
    overlay_seed: int = 0,
    **execution,
) -> RunResult:
    """Spread-Common-Value alone (Fig. 2, Theorem 6).

    ``holders`` are the nodes initialised with ``common_value``; the
    problem requires at least ``3n/5`` of them.
    """
    return run_recipe(
        {
            "name": "scv",
            "n": n,
            "t": t,
            "holders": list(holders),
            "common_value": common_value,
            "overlay_seed": overlay_seed,
        },
        **execution,
    )


def run_gossip(
    rumors: Sequence[Any], t: int, *, overlay_seed: int = 0, **execution
) -> RunResult:
    """Gossiping with crashes (Fig. 5, Theorem 9), ``t < n/5``."""
    return run_recipe(
        {
            "name": "gossip",
            "rumors": list(rumors),
            "t": t,
            "overlay_seed": overlay_seed,
        },
        **execution,
    )


def run_checkpointing(
    n: int, t: int, *, overlay_seed: int = 0, **execution
) -> RunResult:
    """Checkpointing with crashes (Fig. 6, Theorem 10), ``t < n/5``."""
    return run_recipe(
        {"name": "checkpointing", "n": n, "t": t, "overlay_seed": overlay_seed},
        **execution,
    )


def run_ab_consensus(
    inputs: Sequence[int],
    t: int,
    *,
    byzantine: Optional[Sequence[int]] = None,
    behaviour: str = "equivocate",
    overlay_seed: int = 0,
    **execution,
) -> RunResult:
    """Consensus under authenticated Byzantine faults (Fig. 7, Thm. 11).

    ``byzantine`` lists the faulty nodes (at most ``t``); ``behaviour``
    selects their strategy from ``BYZANTINE_BEHAVIOURS`` (``"silent"``,
    ``"equivocate"``, ``"spam"``).  The Byzantine fault budget is spent
    on the ``byzantine`` set itself, so the default fault schedule is
    failure-free; a ``scenario`` may still add link faults (its crash /
    churn events must avoid the Byzantine pids).
    """
    if "crashes" in execution:
        raise TypeError(
            "run_ab_consensus() got an unexpected keyword argument 'crashes'"
        )
    return run_recipe(
        {
            "name": "ab_consensus",
            "inputs": list(inputs),
            "t": t,
            "byzantine": sorted(set(byzantine or ())),
            "behaviour": behaviour,
            "overlay_seed": overlay_seed,
        },
        **execution,
    )


_EXECUTION_DOC = """

    Execution parameters (uniform across ``run_recipe`` and every ``run_*``)
    ------------------------------------------------------------------------
    crashes:
        An adversary instance, a schedule kind for
        :func:`~repro.sim.adversary.crash_schedule` (``"random"`` /
        ``"early"`` / ``"late"`` / ``"staggered"``), a
        :class:`~repro.scenarios.Scenario`, or ``None`` for a
        failure-free run.  (``run_ab_consensus`` spends its fault budget
        on the ``byzantine`` set instead and has no ``crashes``.)
    seed / overlay_seed:
        Seed the generated crash schedule, resp. the deterministic
        overlay graphs.
    max_rounds:
        Safety bound; exceeding it marks the run ``completed=False``.
        Defaults to the family's own (200k for consensus and
        checkpointing, 100k otherwise).
    fast_forward:
        Quiescence skipping; observable behaviour is identical either
        way (pinned by tests).
    backend:
        Execution substrate: ``"sim"`` (lock-step
        :class:`~repro.sim.engine.Engine`, default), ``"vec"``
        (numpy structure-of-arrays kernels for the regular families,
        engine fallback otherwise; requires the ``[vec]`` extra),
        ``"net"`` (asyncio runtime over the in-memory hub) or ``"tcp"``
        (asyncio runtime over loopback sockets).  All backends produce
        identical metrics, decisions and crash sets for the same fault
        schedule.
    optimized:
        Round-loop selection for the sim backend: the batched hot path
        (default) or the straight-line reference loop; ignored by
        ``"net"``/``"tcp"``.  Results are identical.
    scenario:
        A declarative :class:`~repro.scenarios.Scenario` of
        omission / partition / churn (plus crash) faults; overrides
        ``crashes`` when given.
    record_trace:
        Record the execution into a :class:`~repro.trace.Trace`:
        ``True`` attaches it as ``result.trace``; a path string also
        writes the JSON artifact.
    replay:
        A recorded trace (``Trace``, dict, JSON string or path):
        re-execute under the trace's fault schedule and verify every
        delivered message, drop, crash, rejoin and the final metrics
        bit-for-bit (raises :class:`~repro.trace.TraceDivergence` on
        any difference).  Overrides ``crashes``/``scenario``.
    telemetry:
        Wall-clock instrumentation (:mod:`repro.obs`): ``True`` (or a
        :class:`~repro.obs.TelemetryRecorder`) attaches the sealed
        per-phase :class:`~repro.obs.RunTelemetry` as
        ``result.telemetry``; a path string additionally writes the
        artifact there, with the suffix selecting the format
        (``.jsonl`` event log, ``.trace.json`` / ``.chrome.json``
        Chrome trace-event JSON for Perfetto, anything else the
        telemetry JSON).  Off by default and free when off: disabled
        runs perform no clock reads or allocations and produce
        bit-identical results (pinned by ``tests/test_obs.py``).
"""

for _name in __all__:
    # (docstrings are stripped under python -OO)
    if _name.startswith("run_") and globals()[_name].__doc__ is not None:
        globals()[_name].__doc__ += _EXECUTION_DOC
del _name
