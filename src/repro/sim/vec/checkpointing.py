"""Structure-of-arrays kernel for checkpointing (Fig. 6).

Part 1 reuses :class:`~repro.sim.vec.gossip.GossipCore` with the dummy
rumor and the end-of-gossip decide/halt suppressed (the object code
resets ``gossip.halted`` after every receive).  Part 2 is the combined
``Few-Crashes-Consensus``: candidates are the ``n``-bit presence masks,
held here as boolean matrix rows, with AEA's OR-join and SCV's
first-value adoption expressed as matrix products and column argmaxes.

Lazy creation is reproduced per node: the object code builds its
consensus component at the first ``send`` with ``rnd >= consensus
start`` (capturing the *current* extant set as the candidate) and its
SCV component at the first ``send`` past the AEA window (capturing the
AEA decision, or null).  A churn rejoiner therefore enters Part 2 with
the freshly-reset ``{pid}`` extant set, exactly like a rejoined
process object; one that rejoins after the SCV window halts undecided
at its first receive, because ``SCV.finished`` already holds.

Bit accounting: candidate/value messages carry pid-set bitmasks, whose
``payload_bits`` is ``highest set pid + 1``; inquiry messages cost one
bit; the gossip part accounts as in the gossip kernel.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.graphs.families import scv_inquiry_graph
from repro.sim.process import Process
from repro.sim.vec.engine import (
    Kernel,
    VecMetricsSink,
    bool_transport,
    deliver,
)
from repro.sim.vec.gossip import GossipCore, adjacency_matrix

__all__ = ["CheckpointingKernel"]

_FAR = 2**62  # larger than any wake round


class CheckpointingKernel(Kernel):
    def __init__(self, core: GossipCore, spread_graph) -> None:
        params = core.params
        n = core.n
        self.core = core
        self.n = n
        self.params = params
        self.cs = core.end_round  # consensus start (absolute)
        self.little = core.little
        self.delta = core.delta

        # component-round windows (relative to self.cs)
        self.flood_end = params.little_flood_rounds
        self.notify_round = self.flood_end + params.little_probe_rounds
        self.scv_start = self.notify_round + 1
        self.inquiry_start = self.scv_start + params.scv_spread_rounds
        self.direct = params.scv_direct_inquiry
        self.scv_end = self.inquiry_start + (
            2 if self.direct else 2 * params.scv_phase_count
        )

        self.spread_adj = adjacency_matrix(
            spread_graph, n, np.ones(n, dtype=bool)
        )
        related = np.zeros((n, n), dtype=bool)
        for lp in range(params.little_count):
            related[lp, list(params.related_nodes(lp))] = True
        self.related_adj = related
        if self.direct:
            direct_adj = np.zeros((n, n), dtype=bool)
            direct_adj[:, : params.little_count] = True
            np.fill_diagonal(direct_adj, False)
            self.direct_adj = direct_adj
        self._inquiry_adj: dict[int, np.ndarray] = {}

        # AEA state (valid where cons_created)
        self.cons_created = np.zeros(n, dtype=bool)
        self.cand = np.zeros((n, n), dtype=bool)
        self.aea_pending = np.zeros(n, dtype=bool)
        self.aea_paused = np.zeros(n, dtype=bool)
        self.aea_decided = np.zeros(n, dtype=bool)
        self.aea_decision = np.zeros((n, n), dtype=bool)
        # SCV state (valid where scv_created)
        self.scv_created = np.zeros(n, dtype=bool)
        self.has_value = np.zeros(n, dtype=bool)
        self.value = np.zeros((n, n), dtype=bool)
        self.pending_forward = np.zeros(n, dtype=bool)
        self.scv_inquirers = np.zeros((n, n), dtype=bool)

        self.halted = np.zeros(n, dtype=bool)
        self.decided = np.zeros(n, dtype=bool)

    @classmethod
    def build(
        cls, processes: Sequence[Process]
    ) -> Optional["CheckpointingKernel"]:
        first = processes[0]
        params = first.params
        overlay = first._overlay
        spread = first._spread
        if len(processes) != params.n:
            return None
        for proc in processes:
            if (
                proc.params is not params
                or proc._overlay is not overlay
                or proc._spread is not spread
                or proc.consensus is not None
                or proc.halted
                or proc.decided
            ):
                return None
            if not proc.gossip.untouched():
                return None
        pairs = [proc.gossip.extant[proc.pid] for proc in processes]
        return cls(GossipCore(params, overlay, pairs), spread)

    # -- helpers ----------------------------------------------------------

    def _mask_bits(self, rows: np.ndarray) -> np.ndarray:
        """``payload_bits`` of each row's pid-set bitmask."""
        width = rows * np.arange(1, self.n + 1, dtype=np.int64)
        return np.maximum(1, width.max(axis=1))

    def inquiry_adjacency(self, index: int) -> np.ndarray:
        adj = self._inquiry_adj.get(index)
        if adj is None:
            graph = scv_inquiry_graph(self.n, index, self.params.seed)
            adj = adjacency_matrix(
                graph, self.n, np.ones(self.n, dtype=bool)
            )
            self._inquiry_adj[index] = adj
        return adj

    @staticmethod
    def _adopt_first(
        received: np.ndarray, snapshot: np.ndarray, adopters: np.ndarray
    ) -> None:
        """For each adopter column, copy the lowest delivering sender's
        snapshot row (inbox order is ascending sender pid, and the
        object code adopts the first payload)."""
        first_src = received[:, adopters].argmax(axis=0)
        adopters_idx = np.nonzero(adopters)[0]
        snapshot_rows = snapshot[first_src]
        return adopters_idx, snapshot_rows

    # -- Kernel interface -------------------------------------------------

    def step(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> bool:
        if rnd < self.cs:
            delivered_any, _ = self.core.step(
                rnd, senders, receivers, keep, blocked, sink
            )
            return delivered_any
        n = self.n
        r = rnd - self.cs

        # lazy creation at send time (receivers are a subset of senders,
        # so creating for senders covers every node touched this round)
        new_cons = senders & ~self.cons_created
        if new_cons.any():
            self.cand[new_cons] = self.core.E[new_cons]
            self.aea_pending[new_cons] = self.little[new_cons]
            self.cons_created[new_cons] = True
        if r >= self.scv_start:
            new_scv = senders & ~self.scv_created
            if new_scv.any():
                self.has_value[new_scv] = self.aea_decided[new_scv]
                self.value[new_scv] = self.aea_decision[new_scv]
                self.pending_forward[new_scv] = self.has_value[new_scv]
                self.scv_created[new_scv] = True

        attempts = np.zeros((n, n), dtype=bool)
        bits_each = np.ones(n, dtype=np.int64)
        payload = None
        if r < self.flood_end:
            flooding = senders & self.little & self.aea_pending
            self.aea_pending[flooding] = False  # cleared at call
            attempts[flooding] = self.core.committee[flooding]
            payload = self.cand.copy()
            bits_each = self._mask_bits(self.cand)
        elif r < self.notify_round:
            probing = (
                senders
                & self.little
                & ~self.aea_paused
                & self.core.has_committee
            )
            attempts[probing] = self.core.committee[probing]
            payload = self.cand.copy()
            bits_each = self._mask_bits(self.cand)
        elif r == self.notify_round:
            notifying = senders & self.little & self.aea_decided
            attempts[notifying] = self.related_adj[notifying]
            payload = self.aea_decision.copy()
            bits_each = self._mask_bits(self.aea_decision)
        elif r < self.inquiry_start:
            forwarding = senders & self.pending_forward
            self.pending_forward[forwarding] = False  # cleared at call
            attempts[forwarding] = self.spread_adj[forwarding]
            payload = self.value.copy()
            bits_each = self._mask_bits(self.value)
        elif r < self.scv_end:
            offset = r - self.inquiry_start
            if offset % 2 == 0:  # inquiry round
                inquiring = senders & ~self.has_value
                if self.direct:
                    attempts[inquiring] = self.direct_adj[inquiring]
                else:
                    index = offset // 2 + 1
                    attempts[inquiring] = self.inquiry_adjacency(index)[
                        inquiring
                    ]
                # inquiry payload is the constant 1 -> 1 bit
            else:  # response round
                responding = (
                    senders
                    & self.has_value
                    & self.scv_inquirers.any(axis=1)
                )
                attempts[responding] = self.scv_inquirers[responding]
                self.scv_inquirers[responding] = False  # cleared at call
                payload = self.value.copy()
                bits_each = self._mask_bits(self.value)

        delivered = deliver(attempts, keep, blocked, sink)
        counts = delivered.sum(axis=1).astype(np.int64)
        delivered_any = bool(counts.any())
        if delivered_any:
            sink.add_array(rnd, counts, counts * bits_each)

        # -- receive phase -----------------------------------------------
        received = delivered.copy()
        received[:, ~receivers] = False
        if r < self.flood_end:
            window = receivers & self.little
            contrib = bool_transport(received, payload)
            new = contrib & ~self.cand
            new[~window] = False
            grew = new.any(axis=1)
            self.cand |= new
            if r + 1 < self.flood_end:
                self.aea_pending[grew] = True
        elif r < self.notify_round:
            window = receivers & self.little
            starved = received.sum(axis=0) < self.delta
            self.aea_paused |= window & ~self.aea_paused & starved
            contrib = bool_transport(received, payload)
            contrib[~window] = False
            self.cand |= contrib
            if r == self.notify_round - 1:  # probe window elapsed
                survivors = window & ~self.aea_paused
                self.aea_decided[survivors] = True
                self.aea_decision[survivors] = self.cand[survivors]
        elif r == self.notify_round:
            adopters = (
                receivers & ~self.little & received.any(axis=0)
            )
            if adopters.any():
                idx, rows = self._adopt_first(received, payload, adopters)
                self.aea_decision[idx] = rows
                self.aea_decided[idx] = True
        elif r < self.inquiry_start:
            adopters = (
                receivers & ~self.has_value & received.any(axis=0)
            )
            if adopters.any():
                idx, rows = self._adopt_first(received, payload, adopters)
                self.value[idx] = rows
                self.has_value[idx] = True
                if r + 1 < self.inquiry_start:
                    self.pending_forward[idx] = True
        elif r < self.scv_end:
            offset = r - self.inquiry_start
            if offset % 2 == 0:
                got = (
                    receivers & self.has_value & received.any(axis=0)
                )
                self.scv_inquirers[got] = received.T[got]  # replace
            else:
                adopters = (
                    receivers & ~self.has_value & received.any(axis=0)
                )
                if adopters.any():
                    idx, rows = self._adopt_first(
                        received, payload, adopters
                    )
                    self.value[idx] = rows
                    self.has_value[idx] = True

        if r >= self.scv_end - 1:
            finishing = np.nonzero(receivers)[0]
            if finishing.size:
                self.decided[finishing] = self.has_value[finishing]
                self.halted[finishing] = True
        return delivered_any

    def reset_nodes(self, pids: Sequence[int]) -> None:
        self.core.reset_nodes(pids)
        self.cons_created[pids] = False
        self.aea_pending[pids] = False
        self.aea_paused[pids] = False
        self.aea_decided[pids] = False
        self.scv_created[pids] = False
        self.has_value[pids] = False
        self.pending_forward[pids] = False
        for matrix in (
            self.cand,
            self.aea_decision,
            self.value,
            self.scv_inquirers,
        ):
            matrix[pids] = False
        self.halted[pids] = False
        self.decided[pids] = False

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        core = self.core
        if rnd < self.cs - 1:
            # min(gossip.next_activity, consensus start)
            if np.any(active & (core.little | core.Iq.any(axis=1))):
                return rnd + 1
            return min(max(rnd + 1, core.end_round - 1), self.cs)
        if rnd < self.cs:
            return self.cs
        r = rnd - self.cs
        wake = np.full(self.n, _FAR, dtype=np.int64)
        if r < self.scv_start - 1:
            aea = np.full(self.n, max(r + 1, self.notify_round), np.int64)
            if r < self.flood_end:
                idle = self.little & ~self.aea_pending
                aea[self.little] = r + 1
                aea[idle] = max(r + 1, self.flood_end)
            else:
                aea[self.little] = r + 1
            wake = np.minimum(aea, self.scv_start)
        elif r < self.scv_start:
            wake[:] = self.scv_start
        elif r < self.inquiry_start:
            wake = np.where(
                self.pending_forward, r + 1, max(r + 1, self.inquiry_start)
            )
        elif r < self.scv_end:
            busy = ~self.has_value | self.scv_inquirers.any(axis=1)
            wake = np.where(busy, r + 1, max(r + 1, self.scv_end - 1))
        else:
            wake[:] = r + 1
        return int(wake[active].min()) + self.cs

    def finalize(self, processes: Sequence[Process]) -> None:
        # equal decisions share one frozenset, as mask_to_set's do
        decoded: dict[bytes, frozenset[int]] = {}
        for pid, proc in enumerate(processes):
            if self.halted[pid]:
                proc.halted = True
            if self.decided[pid]:
                row = self.value[pid]
                key = row.tobytes()
                if key not in decoded:
                    decoded[key] = frozenset(compress(range(self.n), row.tolist()))
                proc.decide(decoded[key])
