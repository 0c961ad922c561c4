"""Algorithm ``Linear-Consensus`` (Section 8, Theorem 12): binary
consensus in the single-port model in ``O(t + log n)`` rounds with
``O(n + t log n)`` bits, for ``t < n/5``.

The schedule realises the Section 8 adaptation of
``Few-Crashes-Consensus``:

* **A -- committee flooding** (AEA Part 1): ``m − 1`` windows of
  ``2·d_G`` sp-rounds over the committee graph ``G``;
* **B -- committee probing** (AEA Part 2): ``2 + ⌈lg m⌉`` windows; a
  window receiving fewer than ``δ`` probes pauses the node; survivors
  decide their candidate;
* **C -- expander spreading** (SCV Part 1): AEA Part 3's related-node
  multicast is replaced -- as Section 8 prescribes for ``t ≤ √n`` -- by
  flooding the decision from the committee survivors through the
  constant-degree graph ``H``, for ``⌈log_{3/2} n⌉ + O(1)`` windows of
  ``2·d_H`` sp-rounds;
* **D -- doubling inquiries** (SCV Part 2): per phase ``i``, a window of
  ``4·deg_i`` slots (inquiry sends, inquiry polls, response sends,
  response polls) over ``G_i``; phases stop once ``deg_i`` exceeds
  ``3t`` ("it suffices for each node to inquire 3t + 1 nodes");
* **E -- ring mop-up**: any node still undecided inquires the next
  ``min(3t + 1, n − 1)`` names cyclically; every node symmetrically
  polls the preceding names.  At most ``t + 1`` nodes are undecided by
  now, so this is the deterministic guarantee Section 8's analysis
  invokes, with ``O(t)`` slots and (in healthy executions) zero traffic.

Message roles are fixed by the round, and all payloads are tiny
integers: candidates/values are 0/1 and the inquiry sentinel is 2.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.params import ProtocolParams
from repro.graphs.families import scv_inquiry_degree, scv_inquiry_graph, spread_graph
from repro.graphs.graph import Graph
from repro.graphs.ramanujan import certified_ramanujan_graph
from repro.sim.singleport import SinglePortProcess

__all__ = ["LinearConsensusProcess", "linear_consensus_schedule"]

from repro.singleport.transformer import WindowSchedule

_INQUIRY = 2


def linear_consensus_schedule(params: ProtocolParams) -> tuple[WindowSchedule, dict]:
    """Build the five-segment schedule and its shared graphs."""
    committee = certified_ramanujan_graph(
        params.little_count, params.little_degree, seed=params.seed
    )
    spread = spread_graph(params.n, params.seed)
    d_committee = max(1, committee.max_degree)
    d_spread = max(1, spread.max_degree)

    schedule = WindowSchedule()
    schedule.append("flood", params.little_flood_rounds, 2 * d_committee)
    schedule.append("probe", params.little_probe_rounds, 2 * d_committee)
    spread_windows = math.ceil(math.log(max(params.n, 2), 1.5)) + 4
    schedule.append("spread", spread_windows, 2 * d_spread)

    inquiry_cap = max(3 * params.t, 1)
    phase_degrees = []
    for i in range(1, params.scv_phase_count + 1):
        degree = scv_inquiry_degree(i, params.n)
        phase_degrees.append((i, degree))
        if degree > inquiry_cap:
            break
    for i, degree in phase_degrees:
        schedule.append(f"inquire{i}", 1, 4 * degree)

    ring = min(params.n - 1, 3 * params.t + 1) if params.t > 0 else min(params.n - 1, 4)
    schedule.append("ring", 1, 4 * ring)

    shared = {
        "committee": committee,
        "spread": spread,
        "phase_degrees": phase_degrees,
        "ring": ring,
    }
    return schedule, shared


class LinearConsensusProcess(SinglePortProcess):
    """Per-node Linear-Consensus state machine (single-port)."""

    def __init__(
        self,
        pid: int,
        params: ProtocolParams,
        input_value: int,
        *,
        schedule: Optional[WindowSchedule] = None,
        shared: Optional[dict] = None,
    ):
        super().__init__(pid, params.n)
        if input_value not in (0, 1):
            raise ValueError(f"Linear-Consensus is binary; got {input_value!r}")
        if 5 * params.t >= params.n:
            raise ValueError("Linear-Consensus adapts Few-Crashes-Consensus: t < n/5")
        self.params = params
        if schedule is None or shared is None:
            schedule, shared = linear_consensus_schedule(params)
        self.schedule = schedule
        self.committee: Graph = shared["committee"]
        self.spread: Graph = shared["spread"]
        self.phase_degrees: list[tuple[int, int]] = shared["phase_degrees"]
        self.ring: int = shared["ring"]

        self.is_little = params.is_little(pid)
        self.candidate = input_value
        #: The spread value (None until this node holds the decision).
        self.value: Optional[int] = None

        self._c_neighbors = self.committee.neighbors(pid) if self.is_little else ()
        self._h_neighbors = self.spread.neighbors(pid)
        self._flood_pending = self.is_little and self.candidate == 1
        self._flood_next = False
        self._probe_paused = False
        self._probe_count = 0
        self._spread_pending = False
        self._spread_next = False
        self._inquirers: list[int] = []
        self._end = self.schedule.end

    # -- helpers ---------------------------------------------------------------

    def _phase_graph(self, name: str) -> tuple[Graph, int]:
        index = int(name[len("inquire"):])
        degree = dict(self.phase_degrees)[index]
        return scv_inquiry_graph(self.params.n, index, self.params.seed), degree

    def _ring_target(self, j: int) -> int:
        return (self.pid + 1 + j) % self.n

    def _ring_source(self, j: int) -> int:
        return (self.pid - 1 - j) % self.n

    # -- SinglePortProcess interface ----------------------------------------------

    def emit(self, rnd: int) -> Optional[tuple[int, int]]:
        located = self.schedule.locate(rnd)
        if located is None:
            return None
        segment, window, slot = located
        name = segment.name

        if name == "flood":
            if not self.is_little or not self._flood_pending:
                return None
            if slot < len(self._c_neighbors):
                return (self._c_neighbors[slot], self.candidate)
            return None

        if name == "probe":
            if not self.is_little or self._probe_paused:
                return None
            if slot < len(self._c_neighbors):
                return (self._c_neighbors[slot], self.candidate)
            return None

        if name == "spread":
            if not self._spread_pending:
                return None
            if slot < len(self._h_neighbors):
                return (self._h_neighbors[slot], self.value)
            return None

        if name.startswith("inquire"):
            graph, degree = self._phase_graph(name)
            neighbors = graph.neighbors(self.pid)
            quarter = segment.window_len // 4
            if slot < quarter:
                if self.value is None and slot < len(neighbors):
                    return (neighbors[slot], _INQUIRY)
                return None
            if 2 * quarter <= slot < 3 * quarter:
                index = slot - 2 * quarter
                if self.value is not None and index < len(self._inquirers):
                    return (self._inquirers[index], self.value)
                return None
            return None

        if name == "ring":
            quarter = segment.window_len // 4
            if slot < quarter:
                if self.value is None:
                    return (self._ring_target(slot), _INQUIRY)
                return None
            if 2 * quarter <= slot < 3 * quarter:
                index = slot - 2 * quarter
                if self.value is not None and index < len(self._inquirers):
                    return (self._inquirers[index], self.value)
                return None
            return None
        return None

    def poll(self, rnd: int) -> Optional[int]:
        located = self.schedule.locate(rnd)
        if located is None:
            return None
        segment, window, slot = located
        name = segment.name
        half = segment.window_len // 2

        if name in ("flood", "probe"):
            if not self.is_little or slot < half:
                return None
            index = slot - half
            if index < len(self._c_neighbors):
                return self._c_neighbors[index]
            return None

        if name == "spread":
            if slot < half:
                return None
            index = slot - half
            if index < len(self._h_neighbors):
                return self._h_neighbors[index]
            return None

        if name.startswith("inquire"):
            graph, degree = self._phase_graph(name)
            neighbors = graph.neighbors(self.pid)
            quarter = segment.window_len // 4
            if quarter <= slot < 2 * quarter:
                index = slot - quarter
                if index < len(neighbors):
                    return neighbors[index]
                return None
            if slot >= 3 * quarter:
                if self.value is None:
                    index = slot - 3 * quarter
                    if index < len(neighbors):
                        return neighbors[index]
                return None
            return None

        if name == "ring":
            quarter = segment.window_len // 4
            if quarter <= slot < 2 * quarter:
                return self._ring_source(slot - quarter)
            if slot >= 3 * quarter:
                if self.value is None:
                    return self._ring_target(slot - 3 * quarter)
                return None
            return None
        return None

    def absorb(self, rnd: int, message: Optional[tuple[int, int]]) -> None:
        located = self.schedule.locate(rnd)
        if located is None:
            return
        segment, window, slot = located
        name = segment.name

        if message is not None:
            src, payload = message
            if name == "flood":
                if payload == 1 and self.candidate == 0:
                    self.candidate = 1
                    self._flood_next = True
            elif name == "probe":
                self._probe_count += 1
                if payload == 1 and self.candidate == 0:
                    self.candidate = 1  # Fig. 1 Part 2 clause (b)
            elif name == "spread":
                if self.value is None:
                    self.value = payload
                    self._spread_next = True
            elif name.startswith("inquire") or name == "ring":
                if payload == _INQUIRY:
                    if self.value is not None:
                        self._inquirers.append(src)
                elif self.value is None:
                    self.value = payload

        # Window-boundary bookkeeping happens at the last slot.
        if rnd == segment.start + (window + 1) * segment.window_len - 1:
            self._window_end(segment, window)
        if rnd == self._end - 1:
            if self.value is not None:
                self.decide(self.value)
            self.halt()

    def _window_end(self, segment, window: int) -> None:
        name = segment.name
        if name == "flood":
            self._flood_pending = self._flood_next
            self._flood_next = False
        elif name == "probe":
            if self.is_little and not self._probe_paused:
                if self._probe_count < self.params.little_delta:
                    self._probe_paused = True
            self._probe_count = 0
            if window == segment.windows - 1:
                # End of AEA: survivors decide; their value seeds the
                # spreading segment.
                if self.is_little and not self._probe_paused:
                    self.value = self.candidate
                    self._spread_pending = True
        elif name == "spread":
            self._spread_pending = self._spread_next
            self._spread_next = False
        elif name.startswith("inquire") or name == "ring":
            self._inquirers = []

    def next_activity(self, rnd: int) -> int:
        located = self.schedule.locate(rnd)
        if located is None:
            return rnd + self._end + 1
        segment, _, _ = located
        if not self.is_little and segment.name in ("flood", "probe"):
            # Idle until the spreading segment begins.
            spread_start = self.schedule.segments[2].start
            return max(rnd + 1, spread_start)
        return rnd + 1

    def state_digest(self) -> tuple:
        """Dynamic state only (shared schedule/graph objects excluded),
        for the Theorem 13 divergence tracker."""
        return (
            self.pid,
            self.candidate,
            self.value,
            self._flood_pending,
            self._flood_next,
            self._probe_paused,
            self._probe_count,
            self._spread_pending,
            self._spread_next,
            tuple(self._inquirers),
            self.halted,
            self.decision,
        )
