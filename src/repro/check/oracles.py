"""Execution oracles: parity, safety/liveness, and paper-bound certificates.

Three oracle classes, in increasing specificity:

* :func:`check_parity` -- *the* definition of "identical execution"
  used across the repository: the engine parity tests
  (``tests/test_engine_parity.py``), the scenario parity tests, the
  ``repro-bench net`` / ``scenarios`` certification rows and the fuzz
  driver all call this one function, so what "parity" means can never
  drift between tests, fuzzing and bench certification.

* :func:`run_oracles` -- per-run checks on a finished execution:

  - **safety/liveness** (crash-model runs only): the
    :mod:`repro.properties` predicate of the protocol family --
    agreement, validity, termination;
  - **model invariants** (every run, any fault class): metrics
    self-consistency, post-crash silence (a crashed node records no
    sends until its rejoin -- the "no decision by a crashed-at-decision
    node" discipline made checkable: crashed nodes take no actions, so
    any activity after the crash round is an engine bug), and
    churn-rejoin consistency (a completed run never leaves a reachable
    rejoin unapplied);
  - **paper-bound certificates** (crash-model runs only): rounds within
    ``clean + O(t)`` of the failure-free execution of the same instance
    and communication within the Table 1 envelope of the instance, with
    the envelope expression, its constant and the observed ratio
    recorded explicitly per run (:func:`bound_certificate`).

Violations are plain dicts (JSON-safe, sweep-friendly); the exception
form :class:`OracleViolation` is raised by :func:`check_parity` and by
the test-facing wrappers so a failing oracle reads like an assertion.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.params import ProtocolParams
from repro.families import REGISTRY, by_family, by_recipe, instance_shape
from repro.properties import PropertyViolation
from repro.scenarios import Scenario

__all__ = [
    "BOUND_CONSTANTS",
    "OracleViolation",
    "bound_certificate",
    "check_parity",
    "in_crash_model",
    "run_oracles",
]


class OracleViolation(AssertionError):
    """An execution violated an oracle; the message names which one."""


# -- parity: one definition of "identical execution" -------------------------

#: The observable surface two executions must agree on to count as
#: identical, as ``(label, extractor)`` pairs; compared in order so the
#: first differing field is named.
PARITY_FIELDS: tuple[tuple[str, Callable[[Any], Any]], ...] = (
    ("metrics summary", lambda r: r.metrics.summary()),
    ("per-node messages", lambda r: r.metrics.per_node_messages),
    ("per-node bits", lambda r: r.metrics.per_node_bits),
    ("per-round messages", lambda r: r.metrics.per_round_messages),
    ("decisions", lambda r: r.decisions),
    ("crash set", lambda r: r.crashed),
    ("completion", lambda r: r.completed),
)


def check_parity(a, b, a_label: str = "a", b_label: str = "b") -> None:
    """Require two :class:`~repro.sim.engine.RunResult`\\ s to be
    observably identical.

    Compares the full observable surface -- rounds/messages/bits (and
    the drop/faulty tallies via the metrics summary), per-node and
    per-round counters, decisions, crash sets, completion -- and raises
    :class:`OracleViolation` naming the first differing field with both
    values.  This is the single parity definition shared by the engine
    parity tests, the scenario tests, the bench certification rows and
    the fuzz driver.
    """
    for label, extract in PARITY_FIELDS:
        va, vb = extract(a), extract(b)
        if va != vb:
            raise OracleViolation(
                f"parity violated on {label}: {a_label} {va!r} != "
                f"{b_label} {vb!r}"
            )


# -- safety / liveness --------------------------------------------------------


def in_crash_model(recipe: dict, scenario: Optional[Scenario]) -> bool:
    """Whether a run is inside the paper's proven fault model.

    The paper proves safety, liveness and the Table 1 budgets for
    **crash faults with partial sends, at most ``t`` of them** (plus the
    authenticated-Byzantine model, whose budget is the Byzantine set
    itself).  Omission, partition and churn are deliberate
    out-of-model stressors -- a wrong decision under a permanent
    partition is a *measurement*, not a bug -- so the safety and bound
    oracles only arm inside the model; parity and the model invariants
    apply to every run regardless.
    """
    if scenario is None:
        return True
    if scenario.omissions or scenario.partitions or scenario.churn:
        return False
    if not by_recipe(recipe.get("name")).crash_faults:
        # The Byzantine budget is spent on the byzantine set; extra
        # scheduled crashes leave the proven model.
        return not scenario.crashes
    return scenario.fault_budget() <= recipe["t"]


# -- model invariants (any fault class) --------------------------------------


def _metrics_consistency(result) -> Optional[str]:
    m = result.metrics
    if m.rounds < 0 or m.messages < 0 or m.bits < 0 or m.dropped_messages < 0:
        return f"negative tally in {m.summary()!r}"
    per_node = sum(m.per_node_messages.values())
    per_round = sum(m.per_round_messages.values())
    if not (m.messages == per_node == per_round):
        return (
            f"message totals disagree: headline {m.messages}, per-node "
            f"{per_node}, per-round {per_round}"
        )
    if m.bits != sum(m.per_node_bits.values()):
        return (
            f"bit totals disagree: headline {m.bits}, per-node "
            f"{sum(m.per_node_bits.values())}"
        )
    return None


def _post_crash_silence(trace) -> Optional[str]:
    """No sends recorded for a pid between its crash round (exclusive)
    and its next rejoin -- crashed nodes take no actions."""
    crashed_at: dict[int, int] = {}
    for event in trace.events:
        rnd = event["round"]
        for pid in event["rejoins"]:
            crashed_at.pop(pid, None)
        for src in event["sends"]:
            crash_round = crashed_at.get(src)
            if crash_round is not None and crash_round < rnd:
                return (
                    f"node {src} crashed at round {crash_round} but the "
                    f"trace records sends by it at round {rnd}"
                )
        for pid in event["crashes"]:
            # Nominations of already-halted pids never take effect, but
            # such pids record no sends either, so tracking them here
            # cannot produce a false positive.
            crashed_at.setdefault(pid, rnd)
    return None


def _churn_consistency(
    result, scenario: Optional[Scenario], max_rounds: int
) -> Optional[str]:
    """A completed run never leaves a reachable rejoin unapplied: every
    churn pid whose rejoin round lies inside ``max_rounds`` must end the
    run operational (its crash leg either never fired -- the node had
    halted -- or was undone by the rejoin)."""
    if scenario is None or not result.completed:
        return None
    stuck = [
        spec.pid
        for spec in scenario.churn
        if spec.rejoin_round < max_rounds and spec.pid in result.crashed
    ]
    if stuck:
        return (
            f"run completed with churn pids {stuck} still crashed although "
            "their rejoin rounds were reachable"
        )
    return None


# -- paper-bound certificates -------------------------------------------------

#: Family -> (communication measure, envelope constant), as stated on
#: the registry records (:mod:`repro.families` explains the calibration).
BOUND_CONSTANTS: dict[str, tuple[str, float]] = {
    family.family: family.bound for family in REGISTRY
}

#: Slack added to the failure-free round count: the paper's running
#: times are ``O(t + log n)`` over the oblivious schedule, and the only
#: fault-triggered extension in this implementation is the
#: Many-Crashes-Consensus recovery epilogue of ``t + 2`` rounds.
ROUND_SLACK = 8


def bound_certificate(
    family: str, recipe: dict, result, clean=None
) -> dict:
    """The paper-bound certificate for one in-model run.

    Returns a JSON-safe dict recording, with explicit constants:

    * ``rounds`` vs ``round_bound = clean_rounds + t + ROUND_SLACK``
      (the failure-free execution of the same instance plus the paper's
      ``O(t)`` fault tax; ``clean`` is the run itself for failure-free
      configurations);
    * the communication measure (``bits`` for consensus, ``messages``
      elsewhere, matching Table 1) vs ``constant * envelope`` where the
      envelope expression is the instance's Table 1 budget.

    ``ok`` summarises both checks; the caller turns ``ok=False`` into a
    violation carrying this certificate as its detail.
    """
    record = by_family(family)
    n, t = instance_shape(recipe)
    params = ProtocolParams(n=n, t=t, seed=recipe.get("overlay_seed", 0))
    measure, constant = record.bound
    observed = result.bits if measure == "bits" else result.messages
    envelope = record.envelope(params, recipe)
    comm_bound = constant * envelope
    clean_rounds = (clean or result).rounds
    round_bound = clean_rounds + t + ROUND_SLACK
    return {
        "family": family,
        "n": n,
        "t": t,
        "rounds": result.rounds,
        "clean_rounds": clean_rounds,
        "round_slack": ROUND_SLACK,
        "round_bound": round_bound,
        "rounds_ok": result.rounds <= round_bound,
        "comm_measure": measure,
        "comm": observed,
        "envelope": round(envelope, 1),
        "constant": constant,
        "comm_bound": round(comm_bound, 1),
        "comm_ratio": round(observed / comm_bound, 4) if comm_bound else None,
        "comm_ok": observed <= comm_bound,
        "ok": result.rounds <= round_bound and observed <= comm_bound,
    }


# -- the per-run oracle battery ----------------------------------------------


def run_oracles(
    family: str,
    recipe: dict,
    result,
    *,
    scenario: Optional[Scenario] = None,
    trace=None,
    clean=None,
    max_rounds: int = 100_000,
    include_safety: Optional[bool] = None,
    include_bounds: Optional[bool] = None,
) -> tuple[list[dict], Optional[dict]]:
    """Apply every applicable oracle to one finished run.

    Returns ``(violations, certificate)``: violations as JSON-safe
    ``{"oracle": name, "detail": text}`` dicts (empty when clean), and
    the :func:`bound_certificate` when the bound oracles armed.  The
    safety and bound oracles arm automatically for in-model runs
    (:func:`in_crash_model`); ``include_safety`` / ``include_bounds``
    force them on or off -- the deliberate-fault tests use this to
    check that, say, a split-vote partition *is* caught as an agreement
    violation when the safety oracle is armed.
    """
    violations: list[dict] = []
    in_model = in_crash_model(recipe, scenario)
    check_safety = in_model if include_safety is None else include_safety
    check_bounds = (
        (in_model and result.completed)
        if include_bounds is None
        else include_bounds
    )

    if check_safety:
        try:
            by_recipe(recipe.get("name")).safety(recipe, result)
        except PropertyViolation as exc:
            violations.append({"oracle": "safety", "detail": str(exc)})

    detail = _metrics_consistency(result)
    if detail:
        violations.append({"oracle": "invariant:metrics", "detail": detail})
    if trace is not None:
        detail = _post_crash_silence(trace)
        if detail:
            violations.append(
                {"oracle": "invariant:post-crash-silence", "detail": detail}
            )
    detail = _churn_consistency(result, scenario, max_rounds)
    if detail:
        violations.append({"oracle": "invariant:churn-rejoin", "detail": detail})

    certificate = None
    if check_bounds:
        certificate = bound_certificate(family, recipe, result, clean)
        if not certificate["ok"]:
            violations.append(
                {"oracle": "bounds", "detail": repr(certificate)}
            )
    return violations, certificate
