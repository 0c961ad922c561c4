"""Correctness predicates for the paper's problems (Section 2).

Every predicate takes a finished :class:`~repro.sim.engine.RunResult`
and raises :class:`PropertyViolation` with a precise description if the
execution violates the problem's specification.  The test suite and the
benchmark harness both run these after every execution, so a benchmark
number is only ever reported for a *correct* run.
"""

from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Any, Iterable, Optional, Sequence

__all__ = [
    "PropertyViolation",
    "check_aea",
    "check_approximate",
    "check_checkpointing",
    "check_consensus",
    "check_gossip",
    "check_scv",
]

#: AEA's coverage κ (Theorem 5): the share of nodes that decide or fail.
KAPPA = 3 / 5

#: a gossip ``(pid, rumor)`` pair's fields
_first, _second = itemgetter(0), itemgetter(1)


class PropertyViolation(AssertionError):
    """An execution violated its problem specification."""


def _correct_decisions(result) -> dict[int, Any]:
    return result.correct_decisions()


def _correct_pids(result) -> list[int]:
    if hasattr(result, "correct_pids"):
        return result.correct_pids()
    return [p.pid for p in result.processes if p.pid not in result.crashed]


def check_consensus(result, inputs: Sequence[int]) -> None:
    """Validity + agreement + termination for consensus.

    * termination: every non-faulty node decided (and the run completed);
    * agreement: no two decisions differ;
    * validity: the decision is the input of some node.
    """
    if not result.completed:
        raise PropertyViolation("execution did not complete (max_rounds hit)")
    decisions = _correct_decisions(result)
    correct = _correct_pids(result)
    undecided = sorted(set(correct) - set(decisions))
    if undecided:
        raise PropertyViolation(f"termination violated: undecided nodes {undecided[:10]}")
    values = set(decisions.values())
    if len(values) > 1:
        raise PropertyViolation(f"agreement violated: decisions {values}")
    if values:
        value = values.pop()
        if value not in set(inputs):
            raise PropertyViolation(
                f"validity violated: decision {value!r} is nobody's input"
            )


def check_approximate(result, inputs: Sequence[float], eps: float) -> None:
    """ε-agreement + range validity + termination for approximate
    consensus.

    * termination: every non-faulty node decided (and the run completed);
    * ε-agreement: the decided values span at most ``eps``;
    * validity: every decision lies in ``[min(inputs), max(inputs)]``
      (estimates are averages of initial values, so the input range is
      an invariant).
    """
    if not result.completed:
        raise PropertyViolation("execution did not complete (max_rounds hit)")
    decisions = _correct_decisions(result)
    correct = _correct_pids(result)
    undecided = sorted(set(correct) - set(decisions))
    if undecided:
        raise PropertyViolation(
            f"termination violated: undecided nodes {undecided[:10]}"
        )
    values = list(decisions.values())
    if not values:
        return
    spread = max(values) - min(values)
    if spread > eps:
        raise PropertyViolation(
            f"eps-agreement violated: decisions span {spread!r} > eps={eps!r}"
        )
    lo, hi = min(inputs), max(inputs)
    out = {pid: v for pid, v in decisions.items() if not lo <= v <= hi}
    if out:
        raise PropertyViolation(
            f"validity violated: decisions outside input range "
            f"[{lo!r}, {hi!r}]: {dict(list(out.items())[:5])}"
        )


def check_aea(result, inputs: Sequence[int]) -> None:
    """The κ-almost-everywhere-agreement specification.

    At least ``κ·n`` nodes decide or fail (:data:`KAPPA`); agreement
    and validity hold among the nodes that decided.
    """
    if not result.completed:
        raise PropertyViolation("execution did not complete")
    n = len(result.processes)
    decisions = _correct_decisions(result)
    settled = len(decisions) + len(result.crashed)
    if settled < KAPPA * n:
        raise PropertyViolation(
            f"coverage violated: {len(decisions)} deciders + "
            f"{len(result.crashed)} crashed < {KAPPA}·{n}"
        )
    values = set(decisions.values())
    if len(values) > 1:
        raise PropertyViolation(f"agreement violated among deciders: {values}")
    if values:
        value = values.pop()
        if value not in set(inputs):
            raise PropertyViolation(f"validity violated: {value!r} is nobody's input")


def check_scv(result, common_value: Any) -> None:
    """κ-spread-common-value: every non-faulty node decides the common
    value."""
    if not result.completed:
        raise PropertyViolation("execution did not complete")
    decisions = _correct_decisions(result)
    correct = _correct_pids(result)
    undecided = sorted(set(correct) - set(decisions))
    if undecided:
        raise PropertyViolation(f"nodes without the common value: {undecided[:10]}")
    wrong = {pid: v for pid, v in decisions.items() if v != common_value}
    if wrong:
        raise PropertyViolation(f"wrong values adopted: {dict(list(wrong.items())[:5])}")


def _gossip_conditions(
    result, decided_sets: Iterable[tuple[int, AbstractSet[int]]], never_sent: set[int]
) -> None:
    """Conditions (1)-(2) over ``(pid, decided pids)`` pairs, consumed
    one at a time (a lazy iterable holds one set of ``n`` at once)."""
    correct = set(_correct_pids(result))
    for pid, members in decided_sets:
        ghosts = members & never_sent
        if ghosts:
            raise PropertyViolation(
                f"condition (1) violated at {pid}: contains silent-crashed {sorted(ghosts)[:5]}"
            )
        missing = correct - members
        if missing:
            raise PropertyViolation(
                f"condition (2) violated at {pid}: missing operational {sorted(missing)[:5]}"
            )


def check_gossip(result, rumors: Optional[Sequence[Any]] = None) -> None:
    """Gossip conditions (1)-(2) plus termination and rumor fidelity.

    Decided extant sets are the ``(pid, rumor)`` tuples produced by
    :class:`~repro.core.gossip.GossipProcess`.
    """
    if not result.completed:
        raise PropertyViolation("execution did not complete")
    decisions = _correct_decisions(result)
    correct = _correct_pids(result)
    undecided = sorted(set(correct) - set(decisions))
    if undecided:
        raise PropertyViolation(f"termination violated: {undecided[:10]}")
    never_sent = {
        pid for pid in result.crashed if result.metrics.per_node_messages[pid] == 0
    }
    decided_sets = (
        (pid, set(map(_first, extant))) for pid, extant in decisions.items()
    )
    _gossip_conditions(result, decided_sets, never_sent)
    if rumors is not None:
        for pid, extant in decisions.items():
            # one C-level comparison per decision (shared rumors compare
            # by identity); a mismatch is then named pair by pair
            expected = map(rumors.__getitem__, map(_first, extant))
            if list(map(_second, extant)) == list(expected):
                continue
            for q, rumor in extant:
                if rumor != rumors[q]:
                    raise PropertyViolation(
                        f"rumor fidelity violated at {pid}: {q} -> {rumor!r}"
                    )


def check_checkpointing(result) -> None:
    """Checkpointing conditions (1)-(3) plus termination.

    Decisions are frozensets of pids.
    """
    if not result.completed:
        raise PropertyViolation("execution did not complete")
    decisions = _correct_decisions(result)
    correct = _correct_pids(result)
    undecided = sorted(set(correct) - set(decisions))
    if undecided:
        raise PropertyViolation(f"termination violated: {undecided[:10]}")
    sets = list(decisions.values())
    if not sets:
        return
    first = sets[0]
    if any(s != first for s in sets):
        raise PropertyViolation("condition (3) violated: decided sets differ")
    never_sent = {
        pid for pid in result.crashed if result.metrics.per_node_messages[pid] == 0
    }
    decided_sets = ((pid, frozenset(members)) for pid, members in decisions.items())
    _gossip_conditions(result, decided_sets, never_sent)
