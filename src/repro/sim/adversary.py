"""Crash and Byzantine adversaries.

The paper's fault model (Section 2): an adversary crashes at most ``t``
nodes; a node that crashes at a round stops all activity in following
rounds.  Within its crash round a node may manage a *partial send* --
only a subset of the messages it attempted to send are delivered.  This
is the classical synchronous crash model and is what makes flooding-style
arguments non-trivial.

Byzantine nodes (Section 7) are modelled by swapping the node's process
for an arbitrary behaviour; see :class:`ByzantineProcess`.  They are
never "crashed" by a :class:`CrashAdversary` -- the fault budget is
spent by the caller when selecting the Byzantine set.

Beyond the paper's model, :class:`CrashAdversary` also declares the
query surface for the *extended* fault classes of
:mod:`repro.scenarios` -- per-link message omission, transient
partitions (both via :meth:`CrashAdversary.blocked_links`) and churn
(crash + rejoin with state reset, via
:meth:`CrashAdversary.rejoins_for_round`).  The defaults make every
existing adversary a pure-crash adversary, so the engine and the net
runtime can consult the extended surface unconditionally; see
``docs/faults.md`` for the fault-model taxonomy.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Engine

__all__ = [
    "ByzantineProcess",
    "CrashAdversary",
    "CrashSpec",
    "FixedSchedule",
    "NoFailures",
    "ScheduledCrashes",
    "crash_schedule",
]


class CrashSpec(NamedTuple):
    """When and how a node crashes.

    ``keep`` controls the partial send in the crash round: ``None``
    delivers every message the node attempted that round (crash takes
    effect *after* the send phase), while an integer ``k`` delivers only
    the first ``k`` point-to-point messages in the node's send order.
    ``keep=0`` models a node crashing before sending anything that round.
    """

    round: int
    keep: Optional[int] = None


class CrashAdversary:
    """Base class; a no-failure adversary by default.

    Subclasses override :meth:`crashes_for_round` (and, for adaptive
    strategies, may inspect the live engine) and
    :meth:`next_event_round` so the engine's fast-forward does not skip
    over scheduled crashes.
    """

    def crashes_for_round(self, rnd: int, engine: "Engine") -> dict[int, Optional[int]]:
        """Map of pid -> ``keep`` for nodes crashing at round ``rnd``."""
        return {}

    def next_event_round(self, rnd: int) -> Optional[int]:
        """Earliest round after ``rnd`` with a scheduled fault event
        (crash *or* rejoin), if known.

        Consulted by the quiescence fast-forward of both substrates so a
        jump over empty rounds never skips an event.  Link faults
        (:meth:`blocked_links`) need not be reported: they only act on
        messages, and a round in which messages are sent is never
        skipped.  Adaptive adversaries that cannot pre-commit should
        return ``rnd + 1`` to disable fast-forwarding entirely.
        """
        return None

    def total_budget(self) -> int:
        """Number of crashes this adversary may inject (for sanity checks)."""
        return 0

    # -- extended fault classes (repro.scenarios) ------------------------
    #
    # The defaults describe a pure-crash adversary; ScenarioAdversary and
    # TraceAdversary override them.  All four hooks are consulted at the
    # *top* of each round, before the send phase:
    #
    #   1. rejoins_for_round -- crashed nodes scheduled to rejoin come
    #      back (state reset to their pre-``on_start`` snapshot) and
    #      participate in this round's send phase;
    #   2. crashes_for_round -- the classical crash nomination;
    #   3. blocked_links     -- the per-link delivery mask applied to
    #      this round's (possibly ``keep``-truncated) sends.

    def blocked_links(self, rnd: int) -> Optional[Mapping[int, frozenset[int]]]:
        """``src -> blocked destinations`` for round ``rnd``, or ``None``.

        A message from ``src`` to a blocked destination is *sent but not
        delivered*: it vanishes in transit, is excluded from the
        message/bit totals and tallied in
        :attr:`~repro.sim.metrics.Metrics.dropped_messages`.  ``None``
        (the default, and the common round even under scenarios) lets
        the engine's optimized loop keep its filter-free fast path.
        """
        return None

    def rejoins_for_round(self, rnd: int) -> Iterable[int]:
        """Pids scheduled to rejoin (churn) at round ``rnd``.

        A rejoin applies only to a node that is actually crashed at that
        round; the substrates silently skip pids that halted or never
        crashed.  The rejoined node's state is reset to the snapshot
        taken before ``on_start`` and ``on_start`` runs again, after
        which it participates in round ``rnd``'s send phase.
        """
        return ()

    def rejoin_pids(self) -> frozenset[int]:
        """All pids with a scheduled rejoin, known before the run starts.

        The substrates snapshot exactly these processes' initial state
        (a deep copy taken before ``on_start``), so churn costs nothing
        for pure-crash adversaries.
        """
        return frozenset()

    def next_rejoin(self, pid: int, rnd: int) -> Optional[int]:
        """Earliest round after ``rnd`` at which ``pid`` rejoins, if any.

        The net runtime's coordinator uses this to tell a crashing node
        task whether to keep its connection open and await a rejoin
        instead of exiting.
        """
        return None


class NoFailures(CrashAdversary):
    """The failure-free adversary."""


class FixedSchedule(CrashAdversary):
    """Crash and rejoin rounds fixed before the run: the per-round
    tables and the five lookups over them, shared by every oblivious
    adversary.  ``crashes`` maps round -> ``{pid: keep}``, ``rejoins``
    round -> pids; a subclass builds both and adds only what is its own
    (link masks, its budget)."""

    def __init__(
        self,
        crashes: Mapping[int, dict[int, Optional[int]]],
        rejoins: Optional[Mapping[int, Iterable[int]]] = None,
    ):
        rejoins = rejoins or {}
        self._crashes_by_round = crashes
        self._rejoins_by_round = {
            rnd: frozenset(pids) for rnd, pids in rejoins.items()
        }
        #: pid -> the (last) round it rejoins at
        self._rejoin_round = {
            pid: rnd for rnd in sorted(rejoins) for pid in rejoins[rnd]
        }
        self._event_rounds = sorted(set(crashes) | set(rejoins))

    def crashes_for_round(self, rnd: int, engine: "Engine") -> dict[int, Optional[int]]:
        return self._crashes_by_round.get(rnd, {})

    def rejoins_for_round(self, rnd: int) -> frozenset[int]:
        return self._rejoins_by_round.get(rnd, frozenset())

    def rejoin_pids(self) -> frozenset[int]:
        return frozenset(self._rejoin_round)

    def next_rejoin(self, pid: int, rnd: int) -> Optional[int]:
        rejoin = self._rejoin_round.get(pid)
        if rejoin is not None and rejoin > rnd:
            return rejoin
        return None

    def next_event_round(self, rnd: int) -> Optional[int]:
        at = bisect_right(self._event_rounds, rnd)
        return self._event_rounds[at] if at < len(self._event_rounds) else None


class ScheduledCrashes(FixedSchedule):
    """An oblivious adversary committed to a fixed crash schedule."""

    def __init__(self, schedule: dict[int, CrashSpec]):
        self.schedule = dict(schedule)
        by_round: dict[int, dict[int, Optional[int]]] = {}
        for pid, spec in self.schedule.items():
            by_round.setdefault(spec.round, {})[pid] = spec.keep
        super().__init__(by_round)

    def total_budget(self) -> int:
        return len(self.schedule)


def crash_schedule(
    n: int,
    t: int,
    *,
    seed: int = 0,
    kind: str = "random",
    max_round: int = 64,
    victims: Optional[Iterable[int]] = None,
) -> ScheduledCrashes:
    """Build a :class:`ScheduledCrashes` adversary for ``t`` crashes.

    Randomness is drawn exclusively from a fresh
    ``random.Random(seed)``.  The module-level ``random`` state is
    never touched on any code path, so schedules are a pure function of
    their arguments -- which is what keeps sweep rows byte-identical
    across ``--jobs`` worker counts and lets the net runtime replay the
    exact crash set the simulator saw.

    Parameters
    ----------
    kind:
        ``"random"`` -- victims and crash rounds uniform over
        ``[0, max_round)``;
        ``"early"`` -- all crashes in round 0 (tests the "crashed before
        sending any message" clauses of gossip/checkpointing);
        ``"late"`` -- all crashes in the last quarter of ``max_round``;
        ``"staggered"`` -- one crash per round starting at round 0, the
        classical worst case for early-stopping consensus.
    victims:
        Optional explicit victim pool to draw from (e.g. little nodes).

    Each crashing node delivers a random prefix of its final-round
    sends (a partial send).
    """
    rng = random.Random(seed)
    pool = list(victims) if victims is not None else list(range(n))
    if t > len(pool):
        raise ValueError(f"cannot crash {t} nodes out of a pool of {len(pool)}")
    chosen = rng.sample(pool, t)
    schedule: dict[int, CrashSpec] = {}
    for index, pid in enumerate(chosen):
        if kind == "random":
            rnd = rng.randrange(max_round)
        elif kind == "early":
            rnd = 0
        elif kind == "late":
            rnd = max(0, max_round - 1 - rng.randrange(max(1, max_round // 4)))
        elif kind == "staggered":
            rnd = min(index, max_round - 1)
        else:
            raise ValueError(f"unknown crash schedule kind {kind!r}")
        # ``keep`` counts point-to-point messages; protocols here send at
        # most a few multicasts per round, so a small random prefix makes
        # genuinely partial deliveries.
        keep = rng.randrange(0, 4)
        schedule[pid] = CrashSpec(round=rnd, keep=keep)
    return ScheduledCrashes(schedule)


class ByzantineProcess(Process):
    """Base class for Byzantine behaviours (authenticated model).

    A Byzantine node "may undergo arbitrary state transitions but it
    cannot forge messages claiming that they are forwarded from other
    nodes" -- unforgeability is enforced by the signature substrate
    (:mod:`repro.auth.signatures`): the behaviour only ever holds its own
    signing capability.

    Byzantine processes never halt voluntarily (the engine excludes them
    from the termination condition) and their traffic is excluded from
    the headline message counts.
    """

    is_byzantine = True

    def on_start(self) -> None:  # pragma: no cover - trivial default
        pass
