"""Consensus with crashes: Figs. 3 and 4 (Theorems 7 and 8).

* :class:`FewCrashesConsensusProcess` -- ``Few-Crashes-Consensus``:
  Almost-Everywhere-Agreement followed by Spread-Common-Value, for
  ``t < n/5``.  Runs in ``O(t + log n)`` rounds with ``O(n + t log t)``
  one-bit messages.

* :class:`ManyCrashesConsensusProcess` -- ``Many-Crashes-Consensus(α)``:
  works for any ``0 < t < n``; flooding over a Ramanujan overlay on all
  nodes (Part 1, ``n − 1`` rounds), local probing (Part 2, survivors
  decide), and ``1 + ⌈lg((1+3α)n/4)⌉`` inquiry phases over doubling
  overlays (Part 3).  At most ``n + 3(1 + lg n)`` rounds and
  ``(5/(1−α))^8 · n·lg n`` one-bit messages (Theorem 8 / Corollary 1).

Like :class:`~repro.core.aea.AEAComponent`, the candidate algebra is
OR over non-negative integers, so the same code runs the paper's binary
consensus (candidates in ``{0, 1}``) and the ``n`` combined instances of
the checkpointing pipeline (``n``-bit masks).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.aea import AEAComponent, aea_overlay
from repro.core.local_probe import LocalProbe
from repro.core.params import ProtocolParams
from repro.core.scv import SCVComponent
from repro.graphs.families import mcc_phase_graph, spread_graph
from repro.graphs.graph import Graph
from repro.graphs.ramanujan import certified_ramanujan_graph
from repro.sim.process import Multicast, Process

__all__ = [
    "FewCrashesConsensusProcess",
    "ManyCrashesConsensusProcess",
    "mcc_overlay",
]

# Inquiry and HELP payloads are single-bit flags: message roles are
# determined by the round in which they are sent (Section 4).
_INQUIRY = 1
_HELP = 1


class FewCrashesConsensusProcess(Process):
    """``Few-Crashes-Consensus`` (Fig. 3): AEA, then SCV.

    The AEA decision (present in at least ``3/5`` of the nodes by
    Theorem 5) is adopted as the SCV common value; the SCV decision is
    the consensus decision.
    """

    def __init__(
        self,
        pid: int,
        params: ProtocolParams,
        input_value: int,
        *,
        aea_graph: Optional[Graph] = None,
        spread: Optional[Graph] = None,
    ):
        super().__init__(pid, params.n)
        self.params = params
        overlay = aea_graph if aea_graph is not None else aea_overlay(params)
        self.aea = AEAComponent(pid, params, input_value, 0, overlay)
        self._spread = spread if spread is not None else spread_graph(params.n, params.seed)
        self.scv: Optional[SCVComponent] = None
        self._scv_start = self.aea.end_round

    def _ensure_scv(self) -> SCVComponent:
        if self.scv is None:
            self.scv = SCVComponent(
                self.pid,
                self.params,
                self.aea.decision,
                self._scv_start,
                self._spread,
            )
        return self.scv

    def send(self, rnd: int):
        if rnd < self._scv_start:
            return self.aea.outgoing(rnd)
        return self._ensure_scv().outgoing(rnd)

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd < self._scv_start:
            self.aea.incoming(rnd, inbox)
            return
        scv = self._ensure_scv()
        scv.incoming(rnd, inbox)
        if scv.finished(rnd):
            if scv.decision is not None:
                self.decide(scv.decision)
            self.halt()

    def next_activity(self, rnd: int) -> int:
        if rnd < self._scv_start - 1:
            return min(self.aea.next_activity(rnd), self._scv_start)
        if rnd < self._scv_start:
            return self._scv_start
        return self._ensure_scv().next_activity(rnd)


def mcc_overlay(params: ProtocolParams) -> Graph:
    """The full overlay ``G`` of Many-Crashes-Consensus:
    a certified (near-)Ramanujan graph on all ``n`` nodes with degree
    ``d(α)`` (paper: ``(4/(1−α))^8``, here capped; see
    :attr:`~repro.core.params.ProtocolParams.mcc_degree`)."""
    return certified_ramanujan_graph(params.n, params.mcc_degree, seed=params.seed)


class ManyCrashesConsensusProcess(Process):
    """``Many-Crashes-Consensus(α)`` (Fig. 4), for any ``0 < t < n``."""

    def __init__(
        self,
        pid: int,
        params: ProtocolParams,
        input_value: int,
        *,
        graph: Optional[Graph] = None,
    ):
        super().__init__(pid, params.n)
        if input_value < 0:
            raise ValueError(f"candidates must be non-negative, got {input_value}")
        self.params = params
        self.graph = graph if graph is not None else mcc_overlay(params)
        self.candidate = input_value

        self.flood_end = params.mcc_flood_rounds  # Part 1: [0, flood_end)
        probe_rounds = params.mcc_probe_rounds
        self.phase_start = self.flood_end + probe_rounds  # Part 3 base
        self.phase_count = params.mcc_phase_count
        self.phase_end = self.phase_start + 2 * self.phase_count
        # Recovery epilogue for degenerate fault patterns (e.g. t = n-1
        # leaving a lone survivor that local probing starves): one HELP
        # round, and -- only when someone is still undecided -- t + 1
        # rounds of tagged flooding over the complete graph.  Healthy
        # executions halt right after the silent HELP round, so Theorem
        # 8's round bound gains one round (``repro-bench e8`` prints which
        # rows recovered).
        self.help_round = self.phase_end
        self.recovery_end = self.help_round + 1 + (params.t + 1)
        self.end_round = self.recovery_end

        self._pending_flood = self.candidate != 0
        self._recovering = False
        self._seen_decided: Optional[int] = None
        self._min_candidate = input_value
        self._inquirers: list[int] = []
        self._probe = LocalProbe(
            neighbors=self.graph.neighbors(pid),
            delta=params.mcc_delta,
            start_round=self.flood_end,
            rounds=probe_rounds,
            payload_fn=lambda: self.candidate,
        )

    # -- round classification ----------------------------------------------

    def _phase_of(self, rnd: int) -> Optional[tuple[int, bool]]:
        offset = rnd - self.phase_start
        if offset < 0 or rnd >= self.phase_end:
            return None
        return (offset // 2 + 1, offset % 2 == 0)

    # -- engine interface -----------------------------------------------------

    def send(self, rnd: int):
        out: list = []
        if rnd < self.flood_end:
            if self._pending_flood:
                self._pending_flood = False
                neighbors = self.graph.neighbors(self.pid)
                if neighbors:
                    out.append(Multicast(neighbors, self.candidate))
            return out
        if self._probe.in_window(rnd):
            probe_out = self._probe.outgoing(rnd)
            if probe_out is not None:
                dsts, payload = probe_out
                out.append(Multicast(dsts, payload))
            return out
        phase = self._phase_of(rnd)
        if phase is not None:
            index, is_inquiry = phase
            if is_inquiry and not self.decided:
                overlay = mcc_phase_graph(
                    self.params.n, index, self.params.alpha, self.params.seed
                )
                neighbors = overlay.neighbors(self.pid)
                if neighbors:
                    out.append(Multicast(neighbors, _INQUIRY))
            elif not is_inquiry and self.decided and self._inquirers:
                out.append(Multicast(tuple(self._inquirers), self.decision))
                self._inquirers = []
            return out
        if self.n < 2:
            return out
        if rnd == self.help_round:
            if not self.decided:
                out.append(Multicast(self.everyone_else(), _HELP))
        elif self.help_round < rnd < self.recovery_end:
            if self._recovering:
                decided_value = self.decision if self.decided else self._seen_decided
                out.append(
                    Multicast(
                        self.everyone_else(),
                        (decided_value, self._min_candidate),
                    )
                )
        return out

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd < self.flood_end:
            merged = self.candidate
            for _, payload in inbox:
                merged |= payload
            if merged != self.candidate:
                self.candidate = merged
                if rnd + 1 < self.flood_end:
                    self._pending_flood = True
            return
        if self._probe.in_window(rnd):
            self._probe.note_receptions(rnd, len(inbox))
            merged = self.candidate
            for _, payload in inbox:
                merged |= payload
            self.candidate = merged
            if self._probe.finished(rnd) and self._probe.survived:
                self.decide(self.candidate)
            return
        phase = self._phase_of(rnd)
        if phase is not None:
            _, is_inquiry = phase
            if is_inquiry:
                if self.decided and inbox:
                    self._inquirers = [src for src, _ in inbox]
            else:
                if not self.decided and inbox:
                    self.decide(inbox[0][1])
            return
        if rnd == self.help_round:
            self._min_candidate = self.candidate
            if not self.decided or inbox:
                # Someone (possibly this node) still needs a decision:
                # enter the recovery flood.
                self._recovering = True
            else:
                self.halt()
            return
        if self.help_round < rnd < self.recovery_end:
            for _, payload in inbox:
                decided_value, min_candidate = payload
                if decided_value is not None and self._seen_decided is None:
                    self._seen_decided = decided_value
                if min_candidate < self._min_candidate:
                    self._min_candidate = min_candidate
            if rnd == self.recovery_end - 1:
                if not self.decided:
                    if self._seen_decided is not None:
                        self.decide(self._seen_decided)
                    else:
                        self.decide(self._min_candidate)
                self.halt()

    def next_activity(self, rnd: int) -> int:
        if rnd < self.flood_end:
            if self._pending_flood:
                return rnd + 1
            return max(rnd + 1, self.flood_end)
        if rnd < self.phase_start:
            return rnd + 1
        if rnd < self.phase_end:
            if not self.decided or self._inquirers:
                return rnd + 1
            return max(rnd + 1, self.help_round)
        if rnd < self.recovery_end:
            if self._recovering or rnd == self.help_round:
                return rnd + 1
            return max(rnd + 1, self.recovery_end - 1)
        return rnd + 1
