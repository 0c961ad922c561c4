"""Deterministic execution traces: record a run, replay it bit-for-bit.

A :class:`Trace` captures everything observable about one execution of
the paper's protocols — every delivered message (as a structural digest
of its payload plus its destinations and bit size), every fault event
(crashes with their partial-send budgets, churn rejoins, omission /
partition link masks), and the final :class:`~repro.sim.metrics.Metrics`
/ decisions / crash set — into a JSON artifact.  Because the protocols
are deterministic state machines over absolute round numbers, the trace
pins the *entire* execution: re-running the same processes under the
trace's fault schedule on **any** backend (``Engine`` optimized or
reference, or the :mod:`repro.net` runtime over memory or TCP
transports) reproduces it exactly.

That turns two workflows into artifacts:

* **parity checks** — record on one backend, replay with verification
  on another; any divergence in what was sent, dropped, crashed or
  decided raises :class:`TraceDivergence` naming the first differing
  event;
* **bug reports** — a failing run's trace file replays the execution
  deterministically, including adaptive-adversary runs, whose crash
  choices are recorded as an oblivious schedule
  (:class:`TraceAdversary`).

The recording hooks are shared with the substrates through a small
duck-typed interface (``round_events`` / ``record_send_digest`` /
``record_drops``), called by the round's control
(:class:`~repro.sim.rounds.RoundControl`) with the digests the shard
computed next to its sends -- next to the wire, on a net host -- and by
the reference loop with digests of its own.  :class:`TraceRecorder`
implements it by writing a trace; :class:`TraceChecker` implements it
by verifying against one.

Payload digests use :func:`canonical`, a structural freeze (sets
sorted, objects flattened to ``(classname, fields)``), so a digest is
stable across interpreter processes and hash randomization — "the same
message" means structurally identical payload, destinations and charged
bits.

Usage::

    result = run_consensus(inputs, t=5, seed=1, record_trace="run.trace.json")
    replayed = replay_trace("run.trace.json", backend="net")
    assert replayed.metrics.summary() == result.metrics.summary()
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Mapping, Optional

from repro.sim.adversary import FixedSchedule
from repro.sim.process import canonical, payload_digest

__all__ = [
    "Trace",
    "TraceAdversary",
    "TraceChecker",
    "TraceDivergence",
    "TraceRecorder",
    "canonical",
    "payload_digest",
    "replay_trace",
]

TRACE_VERSION = 1


class TraceDivergence(RuntimeError):
    """A replayed execution departed from its trace.

    The message names the first divergent event (round, sender, and the
    expected vs observed record), so a failed cross-backend parity
    check reads like a diff instead of a boolean.
    """


# -- the trace artifact ------------------------------------------------------


class Trace:
    """One recorded execution.

    Attributes
    ----------
    n, byzantine:
        System shape; replays validate the process vector against them.
    protocol:
        The ``run_*`` rebuild recipe (protocol name + JSON-safe
        arguments) when the recording entry point could provide one, so
        :func:`replay_trace` can reconstruct the processes standalone;
        ``None`` when the caller must supply processes.
    scenario:
        The :class:`~repro.scenarios.Scenario` dict the run used, if
        any (informational; the authoritative fault schedule is
        ``events``).
    events:
        Per-round records, ascending by round, only for rounds where
        something happened: ``{"round", "crashes" (pid -> keep),
        "rejoins" (pids), "blocked" (src -> dsts, optional), "sends"
        (src -> [[dsts, bits, digest], ...] in send order), "drops"
        (src -> count)}``.
    result:
        Footer with the recorded outcome: metrics summary, ``repr`` of
        each decision, crash set, completion flag.
    backend:
        Which substrate recorded the trace (``"sim-opt"``, ``"sim-ref"``,
        ``"net"``, ``"tcp"``); informational.
    max_rounds:
        The recording run's safety bound, reused as the replay default.
    meta:
        Free-form JSON-safe annotations bundled into the artifact --
        :mod:`repro.check` stores the violated oracles, the original
        (pre-shrink) scenario and the reproduction command here, so one
        trace file is a complete self-contained bug report.  Never
        consulted by replay.
    """

    def __init__(
        self,
        n: int,
        *,
        byzantine: Iterable[int] = (),
        protocol: Optional[dict] = None,
        scenario: Optional[dict] = None,
        events: Optional[list[dict]] = None,
        result: Optional[dict] = None,
        backend: str = "",
        max_rounds: int = 100_000,
        meta: Optional[dict] = None,
    ):
        self.n = n
        self.byzantine = tuple(sorted(byzantine))
        self.protocol = protocol
        self.scenario = scenario
        self.events = events if events is not None else []
        self.result = result or {}
        self.backend = backend
        self.max_rounds = max_rounds
        self.meta = meta or {}

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "version": TRACE_VERSION,
            "n": self.n,
            "byzantine": list(self.byzantine),
            "backend": self.backend,
            "max_rounds": self.max_rounds,
            "protocol": self.protocol,
            "scenario": self.scenario,
            "events": self.events,
            "result": self.result,
        }
        if self.meta:
            data["meta"] = self.meta
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        version = data.get("version", TRACE_VERSION)
        if version != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {version!r}")
        events = []
        for event in data.get("events", ()):
            events.append(
                {
                    "round": event["round"],
                    "crashes": {
                        int(pid): keep
                        for pid, keep in event.get("crashes", {}).items()
                    },
                    "rejoins": list(event.get("rejoins", ())),
                    "blocked": (
                        {
                            int(src): list(dsts)
                            for src, dsts in event["blocked"].items()
                        }
                        if event.get("blocked")
                        else None
                    ),
                    "sends": {
                        int(src): [list(entry) for entry in entries]
                        for src, entries in event.get("sends", {}).items()
                    },
                    "drops": {
                        int(src): count
                        for src, count in event.get("drops", {}).items()
                    },
                }
            )
        return cls(
            n=data["n"],
            byzantine=data.get("byzantine", ()),
            protocol=data.get("protocol"),
            scenario=data.get("scenario"),
            events=events,
            result=data.get("result", {}),
            backend=data.get("backend", ""),
            max_rounds=data.get("max_rounds", 100_000),
            meta=data.get("meta"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Compact by default (what :meth:`save` writes); pass
        ``indent=2`` for a human-readable dump."""
        separators = (",", ":") if indent is None else None
        return json.dumps(self.to_dict(), indent=indent, separators=separators)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def coerce(cls, value) -> "Trace":
        """Accept a :class:`Trace`, a dict, a JSON string or a file path."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, (str, os.PathLike)):
            text = str(value)
            if text.lstrip().startswith("{"):
                return cls.from_json(text)
            return cls.load(value)
        raise TypeError(f"cannot interpret {type(value)!r} as a trace")

    # -- convenience -----------------------------------------------------

    def adversary(self) -> "TraceAdversary":
        """The recorded fault schedule as an oblivious adversary."""
        return TraceAdversary(self)

    def total_sends(self) -> int:
        """Number of recorded send groups (multicasts count once)."""
        return sum(
            len(entries)
            for event in self.events
            for entries in event["sends"].values()
        )


# -- recording ---------------------------------------------------------------


class TraceRecorder:
    """Accumulates substrate callbacks into a :class:`Trace`.

    Both substrates call, per executed round and in this order:
    ``round_events(rnd, crashing, rejoining, blocked)`` once at the top
    of the round, then ``record_send_digest`` (per surviving send
    group, grouped by sender) and ``record_drops`` during the send
    phase.  Rounds are buffered and flushed when the next round opens;
    senders are serialized in ascending pid order regardless of
    callback arrival order, so the engine (pid-ordered walk) and the
    net coordinator (completion-ordered send reports) produce
    identical traces.
    """

    def __init__(
        self,
        n: int,
        *,
        byzantine: Iterable[int] = (),
        protocol: Optional[dict] = None,
        scenario: Optional[dict] = None,
        max_rounds: int = 100_000,
    ):
        self.n = n
        self.byzantine = frozenset(byzantine)
        if protocol is not None:
            try:  # keep the rebuild recipe only if it survives JSON
                protocol = json.loads(json.dumps(protocol))
            except (TypeError, ValueError):
                protocol = None
        self.protocol = protocol
        self.scenario = scenario
        self.max_rounds = max_rounds
        self.events: list[dict] = []
        self._round: Optional[int] = None
        self._crashes: dict[int, Optional[int]] = {}
        self._rejoins: list[int] = []
        self._blocked: Optional[dict] = None
        self._sends: dict[int, list[list]] = {}
        self._drops: dict[int, int] = {}

    def round_events(
        self,
        rnd: int,
        crashing: Mapping[int, Optional[int]],
        rejoining: Iterable[int],
        blocked: Optional[Mapping[int, Iterable[int]]],
    ) -> None:
        self._flush()
        self._round = rnd
        self._crashes = dict(crashing)
        self._rejoins = sorted(rejoining)
        self._blocked = (
            {src: sorted(dsts) for src, dsts in blocked.items()}
            if blocked
            else None
        )

    def record_send_digest(
        self, rnd: int, src: int, dsts: Iterable[int], bits_each: int, digest: str
    ) -> None:
        if rnd != self._round:
            raise TraceDivergence(
                f"send recorded for round {rnd} while round {self._round} is open"
            )
        self._sends.setdefault(src, []).append([list(dsts), bits_each, digest])

    def record_drops(self, rnd: int, src: int, count: int) -> None:
        if rnd != self._round:
            raise TraceDivergence(
                f"drops recorded for round {rnd} while round {self._round} is open"
            )
        self._drops[src] = self._drops.get(src, 0) + count

    def _flush(self) -> None:
        if self._round is None:
            return
        if self._crashes or self._rejoins or self._sends or self._drops:
            event: dict = {
                "round": self._round,
                "crashes": dict(self._crashes),
                "rejoins": list(self._rejoins),
                "blocked": self._blocked,
                "sends": {src: self._sends[src] for src in sorted(self._sends)},
                "drops": {src: self._drops[src] for src in sorted(self._drops)},
            }
            self.events.append(event)
        self._round = None
        self._crashes, self._rejoins, self._blocked = {}, [], None
        self._sends, self._drops = {}, {}

    def finish(self, result, backend: str = "") -> Trace:
        """Seal the trace with the run's outcome footer."""
        self._flush()
        footer = {
            "metrics": result.metrics.summary(),
            "decisions": {
                str(pid): repr(value) for pid, value in result.decisions.items()
            },
            "crashed": sorted(result.crashed),
            "completed": result.completed,
        }
        return Trace(
            self.n,
            byzantine=self.byzantine,
            protocol=self.protocol,
            scenario=self.scenario,
            events=self.events,
            result=footer,
            backend=backend,
            max_rounds=self.max_rounds,
        )


# -- verification ------------------------------------------------------------


class TraceChecker:
    """Verifies a live run against a recorded trace, event by event.

    Presents the same callback surface as :class:`TraceRecorder`; a
    replay wires it into the backend alongside a
    :class:`TraceAdversary` built from the same trace.  Divergence —
    a send group whose destinations, charged bits or payload digest
    differ, an unexpected or missing send, a crash/rejoin set mismatch,
    or a final metrics/decisions/crash-set mismatch — raises
    :class:`TraceDivergence` at the earliest detectable point.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self._events = {event["round"]: event for event in trace.events}
        self._pending: dict[tuple[int, int], list[list]] = {}
        for event in trace.events:
            for src, entries in event["sends"].items():
                self._pending[(event["round"], src)] = [
                    list(entry) for entry in entries
                ]
        self._drops_seen: dict[tuple[int, int], int] = {}

    def round_events(self, rnd, crashing, rejoining, blocked) -> None:
        event = self._events.get(rnd)
        expected_crashes = event["crashes"] if event else {}
        expected_rejoins = event["rejoins"] if event else []
        if dict(crashing) != dict(expected_crashes):
            raise TraceDivergence(
                f"round {rnd}: crash nomination {dict(crashing)!r} != "
                f"recorded {dict(expected_crashes)!r}"
            )
        if sorted(rejoining) != sorted(expected_rejoins):
            raise TraceDivergence(
                f"round {rnd}: rejoins {sorted(rejoining)!r} != "
                f"recorded {sorted(expected_rejoins)!r}"
            )

    def record_send_digest(self, rnd, src, dsts, bits_each, digest) -> None:
        queue = self._pending.get((rnd, src))
        if not queue:
            raise TraceDivergence(
                f"round {rnd}: unexpected send by {src} to {list(dsts)} "
                "(trace records no further sends for this sender/round)"
            )
        expected = queue.pop(0)
        observed = [list(dsts), bits_each, digest]
        if observed != expected:
            raise TraceDivergence(
                f"round {rnd}: send by {src} diverged -- observed "
                f"{observed!r}, recorded {expected!r}"
            )

    def record_drops(self, rnd, src, count) -> None:
        key = (rnd, src)
        self._drops_seen[key] = self._drops_seen.get(key, 0) + count

    def finish(self, result) -> None:
        """Final checks after the replayed run completes."""
        for (rnd, src), queue in self._pending.items():
            if queue:
                raise TraceDivergence(
                    f"round {rnd}: {len(queue)} recorded send(s) by {src} "
                    "never happened in the replay"
                )
        expected_drops = {
            (event["round"], src): count
            for event in self.trace.events
            for src, count in event["drops"].items()
        }
        if self._drops_seen != expected_drops:
            raise TraceDivergence(
                f"dropped-message mismatch: observed {self._drops_seen!r}, "
                f"recorded {expected_drops!r}"
            )
        footer = self.trace.result
        if footer:
            summary = result.metrics.summary()
            if summary != footer.get("metrics"):
                raise TraceDivergence(
                    f"metrics diverged: replay {summary!r}, "
                    f"recorded {footer.get('metrics')!r}"
                )
            decisions = {
                str(pid): repr(value) for pid, value in result.decisions.items()
            }
            if decisions != footer.get("decisions"):
                raise TraceDivergence(
                    f"decisions diverged: replay {decisions!r}, "
                    f"recorded {footer.get('decisions')!r}"
                )
            if sorted(result.crashed) != footer.get("crashed"):
                raise TraceDivergence(
                    f"crash set diverged: replay {sorted(result.crashed)!r}, "
                    f"recorded {footer.get('crashed')!r}"
                )
            if result.completed != footer.get("completed"):
                raise TraceDivergence(
                    f"completion diverged: replay {result.completed!r}, "
                    f"recorded {footer.get('completed')!r}"
                )


# -- the recorded fault schedule as an adversary -----------------------------


class TraceAdversary(FixedSchedule):
    """Replays a trace's fault events as an oblivious schedule.

    Crash nominations (with their ``keep`` budgets), churn rejoins and
    link masks are read verbatim from the trace — including those an
    *adaptive* adversary produced during recording, which is what makes
    adaptive runs replayable.  ``next_event_round`` exposes the crash /
    rejoin rounds so fast-forward behaves as in the recording run.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        crashes: dict[int, dict[int, Optional[int]]] = {}
        rejoins: dict[int, list[int]] = {}
        self._blocked: dict[int, dict[int, frozenset[int]]] = {}
        for event in trace.events:
            rnd = event["round"]
            if event["crashes"]:
                crashes[rnd] = dict(event["crashes"])
            if event["rejoins"]:
                rejoins[rnd] = event["rejoins"]
            if event.get("blocked"):
                self._blocked[rnd] = {
                    src: frozenset(dsts)
                    for src, dsts in event["blocked"].items()
                }
        super().__init__(crashes, rejoins)

    def blocked_links(self, rnd: int) -> Optional[dict[int, frozenset[int]]]:
        return self._blocked.get(rnd)

    def total_budget(self) -> int:
        return sum(len(crashes) for crashes in self._crashes_by_round.values())


# -- standalone replay -------------------------------------------------------


def replay_trace(
    trace,
    *,
    backend: str = "sim",
    optimized: bool = True,
    processes=None,
    fast_forward: bool = True,
    max_rounds: Optional[int] = None,
    check: bool = True,
):
    """Re-execute a recorded trace and return the replay's ``RunResult``.

    ``trace`` is anything :meth:`Trace.coerce` accepts (a :class:`Trace`,
    a dict, a JSON string or a file path).  When ``processes`` is
    ``None``, the process vector is rebuilt from the trace's recorded
    protocol recipe (recorded by the ``repro.api.run_*`` entry points);
    traces recorded from hand-built process lists must be replayed with
    an identical freshly-built ``processes`` list.

    ``backend`` / ``optimized`` select the replay substrate exactly as
    in the ``run_*`` entry points — the point of the exercise is that
    all of them reproduce the trace.  With ``check`` (default), every
    delivered message and fault event is verified against the trace via
    :class:`TraceChecker` and the final metrics / decisions / crash set
    against the footer, raising :class:`TraceDivergence` on the first
    difference; ``check=False`` just re-executes under the recorded
    fault schedule.
    """
    trace = Trace.coerce(trace)
    from repro import api  # late import; api imports this module

    byzantine = frozenset(trace.byzantine)
    if processes is None:
        if trace.protocol is None:
            raise ValueError(
                "trace has no recorded protocol recipe; pass processes="
            )
        processes, _horizon, byzantine = api.build_recipe_processes(trace.protocol)
    if len(processes) != trace.n:
        raise ValueError(
            f"trace was recorded with n={trace.n}, got {len(processes)} processes"
        )
    return api._execute(
        processes,
        trace.adversary(),
        backend=backend,
        byzantine=byzantine,
        max_rounds=max_rounds if max_rounds is not None else trace.max_rounds,
        fast_forward=fast_forward,
        optimized=optimized,
        replay=trace if check else None,
    )
