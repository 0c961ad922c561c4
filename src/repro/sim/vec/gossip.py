"""Structure-of-arrays kernel for the gossip protocol (Fig. 5).

All per-node dict/set state of :class:`repro.core.gossip.GossipProcess`
becomes boolean membership matrices over ``(node, member)``:

* ``E``/``DE`` -- extant set and its probe delta,
* ``C``/``DC`` -- completion set and its delta (Part 2),
* ``Iq`` -- pending inquirers awaiting a response.

Rumor *values* need no per-entry storage: every extant entry for node
``q`` anywhere in the system carries ``q``'s initial rumor (entries
originate from ``q``'s own pair, and a churn rejoin resets ``q`` to the
same initial rumor), so ``E`` row bits select from one ``(q, rumor)``
pair per pid the exact extant dicts and decisions, which share those
pairs as the object code's do.

Set transport is one boolean matrix product per round: with delivery
matrix ``D`` (``D[i, q]`` = a message from ``i`` reached ``q``) and
payload membership ``P`` (each sender's delta/full set snapshot at send
time), receivers absorb ``D.T @ P`` -- numpy's bool matmul is exactly
the OR-AND semiring.

The side effects the object code performs while *building* a round's
send list (delta clears, completion updates at push time, inquirer-list
clears, the final-inquiry flag) fire here for every active sender
unconditionally, before ``keep`` truncation and link filtering touch
the delivery matrix -- matching ``collect_sends``, which always
evaluates ``send()`` fully.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.params import ProtocolParams
from repro.graphs.families import scv_inquiry_graph
from repro.graphs.graph import Graph
from repro.sim.process import Process, payload_bits
from repro.sim.vec.engine import (
    Kernel,
    VecMetricsSink,
    bool_transport,
    deliver,
)

__all__ = ["GossipCore", "GossipKernel", "adjacency_matrix"]

_ENTRY_BITS = 48  # matches repro.core.gossip._ENTRY_BITS


def adjacency_matrix(graph: Graph, n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean adjacency for the given row mask (neighbor tuples are
    ascending, so row bits preserve the object code's send order)."""
    adj = np.zeros((n, n), dtype=bool)
    for pid in np.nonzero(rows)[0]:
        neighbors = graph.neighbors(int(pid))
        if neighbors:
            adj[pid, list(neighbors)] = True
    return adj


class GossipCore:
    """Shared gossip state + round logic; the checkpointing kernel runs
    it for Part 1 with the end-of-run decide/halt suppressed."""

    def __init__(
        self,
        params: ProtocolParams,
        graph: Graph,
        pairs: Sequence[tuple[int, Any]],
    ) -> None:
        n = params.n
        self.n = n
        self.params = params
        self.little = np.zeros(n, dtype=bool)
        self.little[: params.little_count] = True
        self.committee = adjacency_matrix(graph, n, self.little)
        self.has_committee = self.committee.any(axis=1)
        self.delta = params.little_delta
        self.gamma = params.little_probe_rounds
        self.phase_len = 2 + self.gamma
        self.phases = params.gossip_phase_count
        self.part1_end = self.phases * self.phase_len
        self.end_round = 2 * self.part1_end
        #: the one ``(pid, rumor)`` pair of each pid: the processes' own
        self.pairs = list(pairs)
        self.resp_bits = np.array(
            [payload_bits(pair) for pair in self.pairs], dtype=np.int64
        )
        self._inquiry_adj: dict[int, np.ndarray] = {}

        eye = np.eye(n, dtype=bool)
        self.E = eye.copy()
        self.DE = eye.copy()
        self.C = eye.copy()
        self.DC = eye.copy()
        self.survived = np.ones(n, dtype=bool)
        self.final_inquiry = np.zeros(n, dtype=bool)
        # probe sentinel: start < 0 means "no probe instance"
        self.probe_start = np.full(n, -1, dtype=np.int64)
        self.paused = np.zeros(n, dtype=bool)
        self.Iq = np.zeros((n, n), dtype=bool)

    def inquiry_adjacency(self, index: int) -> np.ndarray:
        adj = self._inquiry_adj.get(index)
        if adj is None:
            graph = scv_inquiry_graph(self.n, index, self.params.seed)
            adj = adjacency_matrix(graph, self.n, self.little)
            self._inquiry_adj[index] = adj
        return adj

    def reset_nodes(self, pids: Sequence[int]) -> None:
        for matrix in (self.E, self.DE, self.C, self.DC, self.Iq):
            matrix[pids] = False
        for pid in pids:
            self.E[pid, pid] = True
            self.DE[pid, pid] = True
            self.C[pid, pid] = True
            self.DC[pid, pid] = True
        self.survived[pids] = True
        self.final_inquiry[pids] = False
        self.probe_start[pids] = -1
        self.paused[pids] = False

    def locate(self, rnd: int) -> Optional[tuple[int, int, int]]:
        if rnd < 0 or rnd >= self.end_round:
            return None
        part = 1 if rnd < self.part1_end else 2
        local = rnd if part == 1 else rnd - self.part1_end
        return (part, local // self.phase_len + 1, local % self.phase_len)

    def _refresh_probes(self, rnd: int, offset: int, who: np.ndarray) -> None:
        """``GossipProcess._probe_for``: (re)create the phase's probing
        instance for the little nodes in ``who``."""
        start = rnd - (offset - 2)
        last = self.probe_start + self.gamma - 1
        stale = (
            (offset == 2)
            | (self.probe_start < 0)
            | (rnd < self.probe_start)
            | (rnd > last)
        )
        renew = who & stale & (self.probe_start != start)
        self.probe_start[renew] = start
        self.paused[renew] = False

    def step(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> tuple[bool, np.ndarray]:
        """One gossip round; returns ``(delivered_any, deciders)``.

        ``deciders`` is the mask of receivers that reached the decision
        round (the standalone kernel decides and halts them; the
        checkpointing wrapper suppresses both).
        """
        n = self.n
        where = self.locate(rnd)
        no_deciders = np.zeros(n, dtype=bool)
        if where is None:
            return False, no_deciders
        part, index, offset = where

        attempts = np.zeros((n, n), dtype=bool)
        bits_each = np.ones(n, dtype=np.int64)
        if offset == 0:
            if part == 1:
                eligible = senders & self.little & self.survived
                if index == self.phases:
                    self.final_inquiry[eligible] = True
                attempts[eligible] = (
                    self.inquiry_adjacency(index)[eligible]
                    & ~self.E[eligible]
                )
                # inquiry payload is the constant 1 -> 1 bit
            else:
                eligible = (
                    senders
                    & self.little
                    & self.survived
                    & self.final_inquiry
                )
                fresh = self.inquiry_adjacency(index) & ~self.C
                attempts[eligible] = fresh[eligible]
                pushing = attempts.any(axis=1)
                # at-call side effect: completion absorbs the full fresh
                # set regardless of keep truncation / link drops
                self.C[pushing] |= fresh[pushing]
                self.DC[pushing] |= fresh[pushing]
                bits_each = np.maximum(
                    1, self.E.sum(axis=1, dtype=np.int64) * _ENTRY_BITS
                )
        elif offset == 1:
            responding = senders & self.Iq.any(axis=1)
            attempts[responding] = self.Iq[responding]
            self.Iq[responding] = False  # cleared at call
            bits_each = self.resp_bits
        else:
            self._refresh_probes(rnd, offset, senders & self.little)
            probing = (
                senders & self.little & ~self.paused & self.has_committee
            )
            attempts[probing] = self.committee[probing]
            if part == 1:
                payload = self.DE.copy()
                self.DE[probing] = False  # delta shipped, cleared at call
                bits_each = np.maximum(
                    1, self.E.sum(axis=1, dtype=np.int64) * _ENTRY_BITS
                )
            else:
                payload = self.DC.copy()
                self.DC[probing] = False
                bits_each = np.maximum(
                    1, self.C.sum(axis=1, dtype=np.int64) * _ENTRY_BITS
                )

        delivered = deliver(attempts, keep, blocked, sink)
        counts = delivered.sum(axis=1).astype(np.int64)
        delivered_any = bool(counts.any())
        if delivered_any:
            sink.add_array(rnd, counts, counts * bits_each)

        # -- receive phase ------------------------------------------------
        received = delivered.copy()
        received[:, ~receivers] = False
        if offset == 0:
            if part == 1:
                got = received.any(axis=0)
                self.Iq[got] = received.T[got]  # replace only when non-empty
            else:
                contrib = bool_transport(received, self.E)  # full extant ships
                self._absorb_extant(contrib, receivers)
        elif offset == 1:
            if part == 1:
                # responders ship their own pair
                self._absorb_extant(received.T, receivers)
        else:
            little_recv = receivers & self.little
            in_window = (
                little_recv
                & (self.probe_start >= 0)
                & (self.probe_start <= rnd)
                & (rnd <= self.probe_start + self.gamma - 1)
            )
            starved = received.sum(axis=0) < self.delta
            self.paused |= in_window & ~self.paused & starved
            if part == 1:
                contrib = bool_transport(received, payload)
                self._absorb_extant(contrib, little_recv)
            else:
                contrib = bool_transport(received, payload)
                fresh = contrib & ~self.C
                fresh[~little_recv] = False
                self.C |= fresh
                self.DC |= fresh
            finished = in_window & (rnd >= self.probe_start + self.gamma - 1)
            self.survived[finished] = ~self.paused[finished]

        if rnd >= self.end_round - 1:
            return delivered_any, receivers.copy()
        return delivered_any, no_deciders

    def _absorb_extant(
        self, contrib: np.ndarray, allowed: np.ndarray
    ) -> None:
        new = contrib & ~self.E
        new[~allowed] = False
        self.E |= new
        self.DE |= new

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        # little nodes and pending responders wake every round; other
        # big nodes sleep until the decision round
        if np.any(active & (self.little | self.Iq.any(axis=1))):
            return rnd + 1
        return max(rnd + 1, self.end_round - 1)


class GossipKernel(Kernel):
    """Standalone gossip: the core plus decide-and-halt at the end."""

    def __init__(self, core: GossipCore) -> None:
        self.core = core
        self.halted = np.zeros(core.n, dtype=bool)
        self.decided = np.zeros(core.n, dtype=bool)

    @classmethod
    def build(
        cls, processes: Sequence[Process]
    ) -> Optional["GossipKernel"]:
        first = processes[0]
        params = first.params
        graph = first.graph
        if len(processes) != params.n:
            return None
        for proc in processes:
            if proc.params is not params or proc.graph is not graph:
                return None
            if proc.halted or proc.decided or not proc.untouched():
                return None
        pairs = [proc.extant[proc.pid] for proc in processes]
        return cls(GossipCore(params, graph, pairs))

    def step(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> bool:
        delivered_any, deciders = self.core.step(
            rnd, senders, receivers, keep, blocked, sink
        )
        idx = np.nonzero(deciders)[0]
        if idx.size:
            self.decided[idx] = True
            self.halted[idx] = True
        return delivered_any

    def reset_nodes(self, pids: Sequence[int]) -> None:
        self.core.reset_nodes(pids)
        self.halted[pids] = False
        self.decided[pids] = False

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        return self.core.next_wake(rnd, active)

    def finalize(self, processes: Sequence[Process]) -> None:
        core = self.core
        for pid, proc in enumerate(processes):
            known = tuple(compress(core.pairs, core.E[pid].tolist()))  # pid order
            proc.extant = dict(zip(map(itemgetter(0), known), known))
            proc.completion = set(compress(range(core.n), core.C[pid].tolist()))
            proc._survived_last = bool(core.survived[pid])
            if self.decided[pid]:
                proc.decide(known)
            if self.halted[pid]:
                proc.halt()
