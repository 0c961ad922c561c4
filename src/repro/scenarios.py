"""Declarative fault scenarios: omission, partition and churn.

The paper proves its bounds in the synchronous crash model with partial
sends (Section 2).  Its lineage — Dwork–Halpern–Waarts's omission-style
adversaries, and the dynamic-fault literature — asks how such
algorithms *degrade* under broader fault classes.  This module makes
those classes first-class, executable and serializable:

* **crash** — the paper's model: a node stops at a round, delivering
  only a prefix of its final sends (:class:`CrashEvent`, equivalent to
  :class:`~repro.sim.adversary.CrashSpec`);
* **omission** — per-link drop schedules: every message from ``src`` to
  ``dst`` during the listed rounds is *sent but lost in transit*
  (:class:`OmissionSpec`);
* **partition** — transient connectivity masks: during ``[start, stop)``
  the network splits into groups and every cross-group message is lost
  (:class:`PartitionSpec`);
* **churn** — crash plus rejoin with state reset: the node comes back
  at ``rejoin_round`` as if freshly started, having lost all protocol
  state (:class:`ChurnSpec`).

A :class:`Scenario` is plain data — a frozen bundle of the above,
round-trippable through JSON (:meth:`Scenario.to_json` /
:meth:`Scenario.from_json`), so a fault pattern can be attached to a
bug report, committed next to a test, or swept over by the benchmark
harness.  :meth:`Scenario.adversary` compiles it into a
:class:`ScenarioAdversary`, a :class:`~repro.sim.adversary.CrashAdversary`
that drives the lock-step engine *and* the :mod:`repro.net` runtime
identically (the parity tests pin identical metrics, decisions and
crash sets across ``Engine(optimized=True/False)`` and the net
backend for every fault class).

Determinism: a scenario is concrete data, so a run under it is a pure
function of ``(processes, scenario)``.  :func:`scenario_schedule`
generates random scenarios deterministically from a seed, mirroring
:func:`~repro.sim.adversary.crash_schedule` (the module-level ``random``
state is never touched).

Semantics in one paragraph: link faults act on messages *after* the
crash-round ``keep`` truncation; a dropped message is excluded from the
``messages``/``bits`` totals and tallied in
:attr:`~repro.sim.metrics.Metrics.dropped_messages`.  A rejoin applies
only to a node that is actually crashed at its scheduled round; the
node's state is reset to a pre-``on_start`` snapshot, ``on_start`` runs
again, and the node participates in the rejoin round's send phase.
See ``docs/faults.md`` for the full handbook.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from repro.sim.adversary import FixedSchedule

__all__ = [
    "ChurnSpec",
    "CrashEvent",
    "OmissionSpec",
    "PartitionSpec",
    "Scenario",
    "ScenarioAdversary",
    "scenario_schedule",
]

SCENARIO_VERSION = 1


class CrashEvent(NamedTuple):
    """A scheduled crash: ``pid`` stops at ``round``.

    ``keep`` is the partial-send budget of the crash round, with the
    exact :class:`~repro.sim.adversary.CrashSpec` semantics: ``None``
    delivers every attempted message, ``k`` the first ``k``
    point-to-point messages in send order, ``0`` none.
    """

    pid: int
    round: int
    keep: Optional[int] = None


class OmissionSpec(NamedTuple):
    """Drop every ``src -> dst`` message during the listed ``rounds``.

    The granularity is one directed link per round: all messages that
    ``src`` attempts to ``dst`` in a listed round are lost in transit
    (after the sender's crash-round ``keep`` truncation, if any).  The
    reverse direction is unaffected unless listed separately.
    """

    src: int
    dst: int
    rounds: tuple[int, ...]


class PartitionSpec(NamedTuple):
    """Split the network into ``groups`` during rounds ``[start, stop)``.

    Messages between different groups are dropped; messages within a
    group are unaffected.  Nodes not listed in any group form one
    implicit remainder group (so a two-way split of ``n`` nodes needs
    only one explicit group).  Overlapping partitions compose: a
    message is dropped if *any* active partition separates its
    endpoints.
    """

    start: int
    stop: int
    groups: tuple[tuple[int, ...], ...]


class ChurnSpec(NamedTuple):
    """Crash ``pid`` at ``crash_round`` and rejoin it at ``rejoin_round``.

    The crash leg behaves exactly like :class:`CrashEvent` (including
    the ``keep`` partial send).  At ``rejoin_round`` the node is
    reinstated with **reset state**: its process is restored to a deep
    copy of its pre-``on_start`` state, ``on_start`` runs again, and it
    participates in that round's send phase.  If the node is not
    actually crashed at ``rejoin_round`` (it halted before its crash
    leg fired), the rejoin is a no-op.
    """

    pid: int
    crash_round: int
    rejoin_round: int
    keep: Optional[int] = None


@dataclass(frozen=True)
class Scenario:
    """A declarative, JSON-serializable bundle of fault events.

    ``n`` is the system size the events are validated against; a
    scenario is rejected at :meth:`adversary` time (or explicitly via
    :meth:`validate`) if any pid is out of range, a pid carries more
    than one crash/churn event, a churn rejoin does not strictly follow
    its crash, or a partition's groups overlap.

    Construction accepts any iterables; they are normalised to tuples
    so scenarios hash and compare by value::

        >>> sc = Scenario(n=4, omissions=[OmissionSpec(0, 1, (2, 3))])
        >>> Scenario.from_json(sc.to_json()) == sc
        True
    """

    n: int
    name: str = ""
    crashes: tuple[CrashEvent, ...] = ()
    omissions: tuple[OmissionSpec, ...] = ()
    partitions: tuple[PartitionSpec, ...] = ()
    churn: tuple[ChurnSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crashes", tuple(CrashEvent(*event) for event in self.crashes)
        )
        object.__setattr__(
            self,
            "omissions",
            tuple(
                OmissionSpec(spec[0], spec[1], tuple(spec[2]))
                for spec in self.omissions
            ),
        )
        object.__setattr__(
            self,
            "partitions",
            tuple(
                PartitionSpec(
                    spec[0],
                    spec[1],
                    tuple(tuple(group) for group in spec[2]),
                )
                for spec in self.partitions
            ),
        )
        object.__setattr__(
            self, "churn", tuple(ChurnSpec(*spec) for spec in self.churn)
        )

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ValueError` on an inconsistent scenario."""
        if self.n <= 0:
            raise ValueError(f"scenario requires n > 0, got {self.n}")

        def check_pid(pid: int, where: str) -> None:
            if not 0 <= pid < self.n:
                raise ValueError(f"{where}: pid {pid} outside [0, {self.n})")

        seen: set[int] = set()
        for event in self.crashes:
            check_pid(event.pid, "crash")
            if event.round < 0:
                raise ValueError(f"crash of pid {event.pid}: negative round")
            if event.pid in seen:
                raise ValueError(
                    f"pid {event.pid} has more than one crash/churn event"
                )
            seen.add(event.pid)
        for spec in self.churn:
            check_pid(spec.pid, "churn")
            if spec.crash_round < 0:
                raise ValueError(f"churn of pid {spec.pid}: negative round")
            if spec.rejoin_round <= spec.crash_round:
                raise ValueError(
                    f"churn of pid {spec.pid}: rejoin_round "
                    f"{spec.rejoin_round} must exceed crash_round "
                    f"{spec.crash_round}"
                )
            if spec.pid in seen:
                raise ValueError(
                    f"pid {spec.pid} has more than one crash/churn event"
                )
            seen.add(spec.pid)
        for spec in self.omissions:
            check_pid(spec.src, "omission")
            check_pid(spec.dst, "omission")
            if spec.src == spec.dst:
                raise ValueError(f"omission on self-link {spec.src}->{spec.dst}")
            if any(rnd < 0 for rnd in spec.rounds):
                raise ValueError(
                    f"omission {spec.src}->{spec.dst}: negative round"
                )
        for spec in self.partitions:
            if not 0 <= spec.start < spec.stop:
                raise ValueError(
                    f"partition window [{spec.start}, {spec.stop}) is empty "
                    "or negative"
                )
            members: set[int] = set()
            for group in spec.groups:
                for pid in group:
                    check_pid(pid, "partition")
                    if pid in members:
                        raise ValueError(
                            f"partition groups overlap on pid {pid}"
                        )
                    members.add(pid)

    # -- derived quantities ----------------------------------------------

    def fault_budget(self) -> int:
        """Number of crash events (churn legs included), the quantity to
        compare against a protocol's ``t``."""
        return len(self.crashes) + len(self.churn)

    def horizon(self) -> int:
        """One past the last round any event of this scenario touches."""
        last = -1
        for event in self.crashes:
            last = max(last, event.round)
        for spec in self.churn:
            last = max(last, spec.rejoin_round)
        for spec in self.omissions:
            last = max(last, max(spec.rounds, default=-1))
        for spec in self.partitions:
            last = max(last, spec.stop - 1)
        return last + 1

    def adversary(self) -> "ScenarioAdversary":
        """Compile into an adversary driving either substrate."""
        return ScenarioAdversary(self)

    # -- shrinking (repro.check) -----------------------------------------

    def shrink_size(self) -> int:
        """A strictly-decreasing complexity measure for shrinking.

        Every candidate :meth:`shrink_candidates` yields has a smaller
        ``shrink_size`` than its parent, so the greedy loop in
        :mod:`repro.check.shrink` terminates unconditionally.  The
        weights order the fault classes by how much machinery they drag
        in (churn > crash; a partial-send ``keep`` budget adds one).
        """
        size = 0
        for event in self.crashes:
            size += 3 + (event.keep is not None)
        for spec in self.churn:
            size += 5 + (spec.keep is not None)
        for spec in self.omissions:
            size += 2 + len(spec.rounds)
        for spec in self.partitions:
            size += 2 + (spec.stop - spec.start) + len(spec.groups)
        return size

    def shrink_candidates(self):
        """Yield strictly-simpler one-mutation variants of this scenario.

        The mutation operators, in the order tried by the greedy
        shrinker (largest simplification first):

        1. **delete** a whole crash / churn / omission / partition entry;
        2. **demote** a churn entry to a plain crash (drop the rejoin leg);
        3. **narrow** an omission's round list or a partition's window to
           its first or second half, or drop one partition group;
        4. **simplify** a crash-round ``keep`` budget to ``None`` (full
           final send).

        Every candidate is a valid scenario (the mutations preserve the
        :meth:`validate` invariants) with a smaller :meth:`shrink_size`.
        Used by :mod:`repro.check.shrink` to reduce a failing scenario to
        a minimal one that still trips the same oracle.
        """

        def drop(items: tuple, index: int) -> tuple:
            return items[:index] + items[index + 1 :]

        # 1. whole-entry deletions.
        for i in range(len(self.crashes)):
            yield replace(self, crashes=drop(self.crashes, i))
        for i in range(len(self.churn)):
            yield replace(self, churn=drop(self.churn, i))
        for i in range(len(self.omissions)):
            yield replace(self, omissions=drop(self.omissions, i))
        for i in range(len(self.partitions)):
            yield replace(self, partitions=drop(self.partitions, i))
        # 2. churn -> plain crash (the rejoin leg deleted).
        for i, spec in enumerate(self.churn):
            yield replace(
                self,
                churn=drop(self.churn, i),
                crashes=self.crashes
                + (CrashEvent(spec.pid, spec.crash_round, spec.keep),),
            )
        # 3a. omission round-list halving.
        for i, spec in enumerate(self.omissions):
            if len(spec.rounds) > 1:
                mid = len(spec.rounds) // 2
                for half in (spec.rounds[:mid], spec.rounds[mid:]):
                    yield replace(
                        self,
                        omissions=drop(self.omissions, i)
                        + (OmissionSpec(spec.src, spec.dst, half),)
                    )
        # 3b. partition window halving and group dropping.
        for i, spec in enumerate(self.partitions):
            rest = drop(self.partitions, i)
            span = spec.stop - spec.start
            if span > 1:
                mid = spec.start + span // 2
                for window in ((spec.start, mid), (mid, spec.stop)):
                    yield replace(
                        self,
                        partitions=rest
                        + (PartitionSpec(window[0], window[1], spec.groups),)
                    )
            if len(spec.groups) > 1:
                for g in range(len(spec.groups)):
                    yield replace(
                        self,
                        partitions=rest
                        + (
                            PartitionSpec(
                                spec.start, spec.stop, drop(spec.groups, g)
                            ),
                        )
                    )
        # 4. keep-budget simplification.
        for i, event in enumerate(self.crashes):
            if event.keep is not None:
                yield replace(
                    self,
                    crashes=drop(self.crashes, i)
                    + (CrashEvent(event.pid, event.round, None),)
                )
        for i, spec in enumerate(self.churn):
            if spec.keep is not None:
                yield replace(
                    self,
                    churn=drop(self.churn, i)
                    + (
                        ChurnSpec(
                            spec.pid, spec.crash_round, spec.rejoin_round, None
                        ),
                    )
                )

    # -- growing (repro.check.search) ------------------------------------

    def grow_candidates(
        self,
        *,
        max_round: int,
        crash_budget: Optional[int] = None,
        victims: Optional[Sequence[int]] = None,
        rng: Optional[random.Random] = None,
        samples: int = 8,
    ):
        """Yield strictly-*larger* one-mutation variants of this scenario.

        The inverse of :meth:`shrink_candidates`: where the shrinker
        deletes, demotes and narrows, the grower adds, promotes and
        widens.  Together they form the move set of the adversary search
        (:mod:`repro.check.search`), which walks scenario space in both
        directions looking for the worst measured bound ratio.

        The move operators, each preserving :meth:`validate` and
        strictly increasing :meth:`shrink_size` (the exact inverses of
        the shrink operators, in the same numbering):

        1. **add** a crash / churn / omission / partition entry;
        2. **promote** a plain crash to churn (grow a rejoin leg);
        3. **extend** an omission's round list or widen a partition's
           window by one round;
        4. **attach** a partial-send ``keep`` budget to a crash or churn
           whose budget is ``None``.

        Crash-model discipline: when ``crash_budget`` is given, no
        candidate's :meth:`fault_budget` exceeds it -- the cap is the
        instance's ``t``, so the search never leaves the paper's crash
        model by fault *count* (link faults remain available as
        explicitly out-of-model moves for degradation studies).
        Crash/churn victims are drawn from ``victims`` (default: all
        pids), which callers use to exclude Byzantine nodes.

        Event rounds are drawn in ``[0, max_round)`` (partition windows
        may extend one past it, mirroring :func:`scenario_schedule`).
        All randomness comes from ``rng`` (default ``Random(0)``); the
        module-level ``random`` state is never touched, so the yielded
        sequence is a pure function of the arguments.  Up to ``samples``
        candidates are yielded; duplicates are suppressed.
        """
        if max_round < 1:
            raise ValueError(f"grow_candidates requires max_round >= 1, got {max_round}")
        if rng is None:
            rng = random.Random(0)

        pool = list(victims) if victims is not None else list(range(self.n))
        taken = {event.pid for event in self.crashes}
        taken.update(spec.pid for spec in self.churn)
        free = [pid for pid in pool if pid not in taken]
        budget_room = (
            crash_budget is None or self.fault_budget() < crash_budget
        )

        def keep_draw() -> Optional[int]:
            return rng.choice((None, 0, 1, 2))

        def add_crash() -> Optional["Scenario"]:
            if not free or not budget_room:
                return None
            pid = free[rng.randrange(len(free))]
            event = CrashEvent(pid, rng.randrange(max_round), keep_draw())
            return replace(self, crashes=self.crashes + (event,))

        def add_churn() -> Optional["Scenario"]:
            if not free or not budget_room:
                return None
            pid = free[rng.randrange(len(free))]
            crash_round = rng.randrange(max_round)
            rejoin_round = crash_round + 1 + rng.randrange(6)
            spec = ChurnSpec(pid, crash_round, rejoin_round, keep_draw())
            return replace(self, churn=self.churn + (spec,))

        def add_omission() -> Optional["Scenario"]:
            if self.n < 2:
                return None
            src, dst = rng.sample(range(self.n), 2)
            start = rng.randrange(max_round)
            span = 1 + rng.randrange(3)
            rounds = tuple(range(start, min(start + span, max_round)))
            return replace(
                self,
                omissions=self.omissions + (OmissionSpec(src, dst, rounds),)
            )

        def extend_omission() -> Optional["Scenario"]:
            candidates = [
                (i, spec)
                for i, spec in enumerate(self.omissions)
                if len(set(spec.rounds)) < max_round
            ]
            if not candidates:
                return None
            i, spec = candidates[rng.randrange(len(candidates))]
            missing = [r for r in range(max_round) if r not in spec.rounds]
            extra = missing[rng.randrange(len(missing))]
            grown = OmissionSpec(
                spec.src, spec.dst, tuple(sorted(spec.rounds + (extra,)))
            )
            return replace(
                self,
                omissions=self.omissions[:i] + (grown,) + self.omissions[i + 1 :]
            )

        def add_partition() -> Optional["Scenario"]:
            if self.n < 2:
                return None
            start = rng.randrange(max_round)
            stop = min(start + 1 + rng.randrange(3), max_round + 1)
            size = max(1, self.n // 2)
            group = tuple(sorted(rng.sample(range(self.n), size)))
            return replace(
                self,
                partitions=self.partitions + (PartitionSpec(start, stop, (group,)),)
            )

        def widen_partition() -> Optional["Scenario"]:
            candidates = []
            for i, spec in enumerate(self.partitions):
                if spec.start > 0:
                    candidates.append(
                        (i, PartitionSpec(spec.start - 1, spec.stop, spec.groups))
                    )
                if spec.stop <= max_round:
                    candidates.append(
                        (i, PartitionSpec(spec.start, spec.stop + 1, spec.groups))
                    )
            if not candidates:
                return None
            i, widened = candidates[rng.randrange(len(candidates))]
            return replace(
                self,
                partitions=self.partitions[:i]
                + (widened,)
                + self.partitions[i + 1 :]
            )

        def attach_keep() -> Optional["Scenario"]:
            bare_crashes = [
                (i, e) for i, e in enumerate(self.crashes) if e.keep is None
            ]
            bare_churn = [
                (i, s) for i, s in enumerate(self.churn) if s.keep is None
            ]
            if not bare_crashes and not bare_churn:
                return None
            keep = rng.randrange(0, 4)
            if bare_crashes and (
                not bare_churn or rng.random() < 0.5
            ):
                i, event = bare_crashes[rng.randrange(len(bare_crashes))]
                budgeted = CrashEvent(event.pid, event.round, keep)
                return replace(
                    self,
                    crashes=self.crashes[:i] + (budgeted,) + self.crashes[i + 1 :]
                )
            i, spec = bare_churn[rng.randrange(len(bare_churn))]
            budgeted = ChurnSpec(spec.pid, spec.crash_round, spec.rejoin_round, keep)
            return replace(
                self,
                churn=self.churn[:i] + (budgeted,) + self.churn[i + 1 :]
            )

        def promote_crash() -> Optional["Scenario"]:
            if not self.crashes:
                return None
            i = rng.randrange(len(self.crashes))
            event = self.crashes[i]
            rejoin_round = event.round + 1 + rng.randrange(6)
            spec = ChurnSpec(event.pid, event.round, rejoin_round, event.keep)
            return replace(
                self,
                crashes=self.crashes[:i] + self.crashes[i + 1 :],
                churn=self.churn + (spec,),
            )

        moves = (
            add_crash,
            add_churn,
            add_omission,
            extend_omission,
            add_partition,
            widen_partition,
            attach_keep,
            promote_crash,
        )
        seen: set = set()
        for _ in range(samples):
            candidate = moves[rng.randrange(len(moves))]()
            if candidate is None or candidate in seen:
                continue
            seen.add(candidate)
            yield candidate

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON-types representation (inverse of :meth:`from_dict`)."""
        return {
            "version": SCENARIO_VERSION,
            "n": self.n,
            "name": self.name,
            "crashes": [
                {"pid": e.pid, "round": e.round, "keep": e.keep}
                for e in self.crashes
            ],
            "omissions": [
                {"src": s.src, "dst": s.dst, "rounds": list(s.rounds)}
                for s in self.omissions
            ],
            "partitions": [
                {
                    "start": s.start,
                    "stop": s.stop,
                    "groups": [list(group) for group in s.groups],
                }
                for s in self.partitions
            ],
            "churn": [
                {
                    "pid": s.pid,
                    "crash_round": s.crash_round,
                    "rejoin_round": s.rejoin_round,
                    "keep": s.keep,
                }
                for s in self.churn
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        version = data.get("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version {version!r}")
        return cls(
            n=data["n"],
            name=data.get("name", ""),
            crashes=tuple(
                CrashEvent(e["pid"], e["round"], e.get("keep"))
                for e in data.get("crashes", ())
            ),
            omissions=tuple(
                OmissionSpec(s["src"], s["dst"], tuple(s["rounds"]))
                for s in data.get("omissions", ())
            ),
            partitions=tuple(
                PartitionSpec(
                    s["start"],
                    s["stop"],
                    tuple(tuple(group) for group in s["groups"]),
                )
                for s in data.get("partitions", ())
            ),
            churn=tuple(
                ChurnSpec(
                    s["pid"],
                    s["crash_round"],
                    s["rejoin_round"],
                    s.get("keep"),
                )
                for s in data.get("churn", ())
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class ScenarioAdversary(FixedSchedule):
    """A :class:`Scenario` compiled for execution.

    Implements the full extended-adversary surface of
    :class:`~repro.sim.adversary.CrashAdversary`:

    * :meth:`crashes_for_round` — crash events plus churn crash legs,
      an oblivious per-round ``pid -> keep`` map;
    * :meth:`rejoins_for_round` / :meth:`rejoin_pids` /
      :meth:`next_rejoin` — the churn rejoin schedule;
    * :meth:`blocked_links` — the per-round ``src -> blocked dsts``
      mask merging all omission specs and active partitions (``None``
      on rounds with no link fault, preserving the engine's fast path);
    * :meth:`next_event_round` — crash and rejoin rounds, so quiescence
      fast-forward never skips an event.

    The compiled form is oblivious (it never inspects the live
    engine/runtime view), which is what makes a scenario replay
    identically on every backend.
    """

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        crashes: dict[int, dict[int, Optional[int]]] = {}
        for event in scenario.crashes:
            crashes.setdefault(event.round, {})[event.pid] = event.keep
        rejoins: dict[int, set[int]] = {}
        for spec in scenario.churn:
            crashes.setdefault(spec.crash_round, {})[spec.pid] = spec.keep
            rejoins.setdefault(spec.rejoin_round, set()).add(spec.pid)
        super().__init__(crashes, rejoins)
        self._omissions_by_round: dict[int, list[tuple[int, int]]] = {}
        for spec in scenario.omissions:
            for rnd in spec.rounds:
                self._omissions_by_round.setdefault(rnd, []).append(
                    (spec.src, spec.dst)
                )
        self._everyone = frozenset(range(scenario.n))
        self._link_fault_rounds = set(self._omissions_by_round)
        for spec in scenario.partitions:
            self._link_fault_rounds.update(range(spec.start, spec.stop))
        # One-round memo: both substrates ask for the same round's mask
        # a small constant number of times in a row.
        self._blocked_memo: tuple[Optional[int], Optional[dict]] = (None, None)

    def total_budget(self) -> int:
        return self.scenario.fault_budget()

    # -- link faults -----------------------------------------------------

    def blocked_links(self, rnd: int) -> Optional[dict[int, frozenset[int]]]:
        if rnd not in self._link_fault_rounds:
            return None
        memo_round, memo_mask = self._blocked_memo
        if memo_round == rnd:
            return memo_mask
        omitted: dict[int, set[int]] = {}
        for src, dst in self._omissions_by_round.get(rnd, ()):
            omitted.setdefault(src, set()).add(dst)
        mask = {src: frozenset(dsts) for src, dsts in omitted.items()}
        everyone = self._everyone
        for spec in self.scenario.partitions:
            if not spec.start <= rnd < spec.stop:
                continue
            groups = list(spec.groups)
            remainder = everyone.difference(*groups)
            if remainder:
                groups.append(tuple(sorted(remainder)))
            for group in groups:
                # One mask object per group, shared by its pids: O(n)
                # elements a round, not O(n^2).
                others = everyone.difference(group)
                if not others:
                    continue
                for pid in group:
                    prior = mask.get(pid)
                    mask[pid] = others if prior is None else prior | others
        self._blocked_memo = (rnd, mask)
        return mask


def scenario_schedule(
    n: int,
    *,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    crashes: int = 0,
    omission_links: int = 0,
    partition_windows: int = 0,
    churn_nodes: int = 0,
    max_round: int = 32,
    partial: bool = True,
    groups: int = 2,
    victims: Optional[Sequence[int]] = None,
    name: str = "",
) -> Scenario:
    """Generate a random :class:`Scenario` deterministically from a seed.

    The counterpart of :func:`~repro.sim.adversary.crash_schedule` for
    the extended fault classes: all randomness comes from ``rng`` or a
    fresh ``random.Random(seed)``; the module-level ``random`` state is
    never touched, so the result is a pure function of the arguments
    (which keeps sweep rows byte-identical across worker counts and
    makes hypothesis-generated scenarios reproducible from their draw).

    Parameters
    ----------
    crashes:
        Plain crash events: distinct victims, uniform rounds in
        ``[0, max_round)``, random partial-send budgets when ``partial``.
    omission_links:
        Directed links to afflict; each gets a contiguous window of 1-4
        rounds within ``[0, max_round)`` during which it drops.
    partition_windows:
        Transient partitions; each spans 1-4 rounds and splits the nodes
        into ``groups`` near-equal random groups.
    churn_nodes:
        Crash-and-rejoin nodes (distinct from the crash victims); the
        downtime is 1-6 rounds, capped at ``max_round``.
    victims:
        Optional pool to draw crash/churn victims from.
    """
    if rng is None:
        rng = random.Random(seed)
    pool = list(victims) if victims is not None else list(range(n))
    if crashes + churn_nodes > len(pool):
        raise ValueError(
            f"cannot pick {crashes + churn_nodes} distinct victims "
            f"from a pool of {len(pool)}"
        )
    chosen = rng.sample(pool, crashes + churn_nodes)
    crash_victims, churn_victims = chosen[:crashes], chosen[crashes:]

    def budget() -> Optional[int]:
        return rng.randrange(0, 4) if partial else None

    crash_events = tuple(
        CrashEvent(pid, rng.randrange(max_round), budget())
        for pid in crash_victims
    )
    churn_specs = []
    for pid in churn_victims:
        crash_round = rng.randrange(max_round)
        rejoin_round = min(crash_round + 1 + rng.randrange(6), max_round)
        rejoin_round = max(rejoin_round, crash_round + 1)
        churn_specs.append(ChurnSpec(pid, crash_round, rejoin_round, budget()))
    omission_specs = []
    for _ in range(omission_links):
        src, dst = rng.sample(range(n), 2)
        start = rng.randrange(max_round)
        span = 1 + rng.randrange(4)
        rounds = tuple(range(start, min(start + span, max_round)))
        omission_specs.append(OmissionSpec(src, dst, rounds))
    partition_specs = []
    for _ in range(partition_windows):
        start = rng.randrange(max_round)
        stop = min(start + 1 + rng.randrange(4), max_round + 1)
        order = list(range(n))
        rng.shuffle(order)
        count = max(2, min(groups, n))
        chunk = max(1, n // count)
        split = tuple(
            tuple(sorted(order[i * chunk : (i + 1) * chunk]))
            for i in range(count - 1)
        )
        # The remainder group is implicit (everything not listed).
        partition_specs.append(PartitionSpec(start, stop, split))
    return Scenario(
        n=n,
        name=name or f"seeded-{seed}",
        crashes=crash_events,
        omissions=tuple(omission_specs),
        partitions=tuple(partition_specs),
        churn=tuple(churn_specs),
    )
