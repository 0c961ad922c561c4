"""The benchmark's own spans and protocol-logic timers (traced run only).

Spans are recorded from this directory's files around the public calls into
each layer, kept in memory and written once, as Chrome trace-event JSON, when
the traced run ends.  Every span of one instance shares a ``chain`` id and
names the span that caused it (``parent``): instance -> prepare -> run ->
phase.  Nothing here is active in a timed pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.sim.process import Multicast

clock = time.perf_counter


class SpanLog:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._chains: dict[str, int] = {}

    def add(self, name, layer, start, end, *, chain, parent=None, **args) -> int:
        span_id = len(self.spans) + 1
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "chain": chain,
                "name": name,
                "layer": layer,
                "start": start,
                "end": end,
                "args": args,
            }
        )
        return span_id

    @contextmanager
    def span(self, name, layer, *, chain, parent=None, **args):
        """Record the enclosed block; yields a dict whose ``id`` children
        name as their parent."""
        # Reserve the id first so children opened inside can refer to it.
        handle = {"id": self.add(name, layer, clock(), None, chain=chain, parent=parent, **args)}
        try:
            yield handle
        finally:
            self.spans[handle["id"] - 1]["end"] = clock()

    def self_seconds(self) -> dict:
        """Layer -> self time: each span's duration minus the part of it
        its child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        return totals

    def write(self, path, **metadata) -> None:
        """Chrome trace-event JSON (chrome://tracing, Perfetto): one track
        per span chain."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = []
        for span in self.spans:
            track = self._chains.setdefault(span["chain"], len(self._chains) + 1)
            events.append(
                {
                    "name": span["name"],
                    "cat": span["layer"],
                    "ph": "X",
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "pid": 1,
                    "tid": track,
                    "args": {
                        "id": span["id"],
                        "parent": span["parent"],
                        "chain": span["chain"],
                        **span["args"],
                    },
                }
            )
        for chain, track in self._chains.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": track, "args": {"name": chain}}
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)


class LogicTimer:
    """Time spent inside protocol logic, measured by wrapping each
    ``Process``'s ``on_start`` / ``send`` / ``receive`` with instance
    attributes.  The process *types* are unchanged, so vec kernel dispatch
    (which keys on the exact type) and parity are unaffected.  ``sends``
    keeps the messages ``send`` returned, for the payload and codec probes.
    """

    #: stop retaining messages past this many (timing continues)
    KEEP = 200_000

    def __init__(self) -> None:
        self.start_s = 0.0
        self.send_s = 0.0
        self.receive_s = 0.0
        self.calls = 0
        self.sends: list = []

    @property
    def total_s(self) -> float:
        return self.start_s + self.send_s + self.receive_s

    def absorb(self, other: "LogicTimer") -> None:
        """Add ``other``'s totals (and, up to ``KEEP``, its messages)."""
        self.start_s += other.start_s
        self.send_s += other.send_s
        self.receive_s += other.receive_s
        self.calls += other.calls
        if len(self.sends) < self.KEEP:
            self.sends.extend(other.sends)

    def install(self, processes) -> None:
        for proc in processes:
            self._wrap(proc)

    def _wrap(self, proc) -> None:
        on_start, send, receive = proc.on_start, proc.send, proc.receive

        def timed_on_start():
            t0 = clock()
            on_start()
            self.start_s += clock() - t0
            self.calls += 1

        def timed_send(rnd):
            t0 = clock()
            out = send(rnd)
            if not isinstance(out, (list, tuple)):
                out = list(out)  # a generator's work belongs to send
            self.send_s += clock() - t0
            self.calls += 1
            if len(self.sends) < self.KEEP:
                self.sends.extend(out)
            return out

        def timed_receive(rnd, inbox):
            t0 = clock()
            receive(rnd, inbox)
            self.receive_s += clock() - t0
            self.calls += 1

        proc.on_start = timed_on_start
        proc.send = timed_send
        proc.receive = timed_receive


def send_groups(messages) -> list:
    """``(payload, fan-out)`` per send action of captured ``send`` output."""
    groups = []
    for message in messages:
        if isinstance(message, Multicast):
            groups.append((message.payload, len(message.dsts)))
        else:
            groups.append((message[1], 1))
    return groups
