"""Structure-of-arrays kernel for flooding consensus.

The baseline protocol (:mod:`repro.baselines.flooding_consensus`) is
maximally regular: for ``t + 1`` rounds every node multicasts its
current minimum to everyone else, folds the received minima, and
decides in the last round.  That makes the whole round a handful of
array reductions:

* **fault-free fast path** -- no partial sends and no blocked links
  means every receiver sees every sender except itself, so the folded
  inbox minimum is the global sender minimum ``m1`` for everyone except
  the (unique) node holding it, which sees the second minimum ``m2``;
* **slow path** -- with ``keep`` truncation or link faults the delivery
  pattern is an explicit boolean ``(sender, receiver)`` matrix: prefix
  truncation and column drops are applied to it, and the fold is a
  masked column minimum.

Destination order within the single per-round multicast is ascending
pid (``Process.everyone_else``), so the crash-round ``keep`` budget is
exactly a prefix of the matrix row.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.sim.process import Process
from repro.sim.vec.engine import (
    Kernel,
    VecMetricsSink,
    bit_length_array,
    deliver_broadcast,
)

__all__ = ["FloodingKernel"]

#: inputs must fit int64 with headroom for ``abs`` (payload_bits uses
#: ``bit_length``, which ignores sign)
_VALUE_LIMIT = 2**62


class FloodingKernel(Kernel):
    def __init__(self, t: int, values: np.ndarray) -> None:
        self.n = len(values)
        self.t = t
        self.rounds = t + 1
        self.initial = values.copy()
        self.minimum = values
        self.halted = np.zeros(self.n, dtype=bool)
        self.decided = np.zeros(self.n, dtype=bool)
        self.decision = np.zeros(self.n, dtype=np.int64)

    @classmethod
    def build(
        cls, processes: Sequence[Process]
    ) -> Optional["FloodingKernel"]:
        """Vectorize fresh flooding processes; decline anything else."""
        first = processes[0]
        t = first.t
        values = []
        for proc in processes:
            if proc.t != t or proc.halted or proc.decided:
                return None
            value = proc.minimum
            # bool is an int subclass but has different payload_bits
            if type(value) is not int:
                return None
            if not -_VALUE_LIMIT < value < _VALUE_LIMIT:
                return None
            values.append(value)
        return cls(t, np.array(values, dtype=np.int64))

    def step(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> bool:
        delivered_any = False
        if rnd < self.rounds and self.n > 1:
            if keep or blocked:
                delivered_any = self._step_slow(
                    rnd, senders, receivers, keep, blocked, sink
                )
            else:
                delivered_any = self._step_fast(
                    rnd, senders, receivers, sink
                )
        # ``receive`` runs for every operational process even with an
        # empty inbox; in the final protocol round it decides and halts.
        if rnd == self.rounds - 1:
            idx = np.nonzero(receivers)[0]
            if idx.size:
                self.decision[idx] = self.minimum[idx]
                self.decided[idx] = True
                self.halted[idx] = True
        return delivered_any

    def _step_fast(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        sink: VecMetricsSink,
    ) -> bool:
        src = np.nonzero(senders)[0]
        if src.size == 0:
            return False
        n = self.n
        counts = np.zeros(n, dtype=np.int64)
        counts[src] = n - 1
        bits = np.zeros(n, dtype=np.int64)
        bits[src] = (
            np.maximum(1, bit_length_array(np.abs(self.minimum[src])))
            * (n - 1)
        )
        sink.add_array(rnd, counts, bits)
        values = self.minimum[src]
        m1_pos = int(values.argmin())
        m1 = values[m1_pos]
        rest = np.delete(values, m1_pos)
        # With a single sender its only potential receiver is itself,
        # and it receives nothing; m2 = own value keeps the fold a
        # no-op for that case too.
        m2 = rest.min() if rest.size else m1
        recv = np.nonzero(receivers)[0]
        if recv.size:
            inbox_min = np.full(recv.shape, m1, dtype=np.int64)
            inbox_min[recv == src[m1_pos]] = m2
            self.minimum[recv] = np.minimum(self.minimum[recv], inbox_min)
        return True

    def _step_slow(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> bool:
        matrix = deliver_broadcast(senders, keep, blocked, sink)
        counts = matrix.sum(axis=1).astype(np.int64)
        if not counts.any():
            return False
        bits_each = np.maximum(
            1, bit_length_array(np.abs(self.minimum))
        )
        sink.add_array(rnd, counts, counts * bits_each)
        sentinel = np.iinfo(np.int64).max
        incoming = np.where(matrix, self.minimum[:, None], sentinel)
        column_min = incoming.min(axis=0)
        recv = receivers & (column_min < sentinel)
        self.minimum[recv] = np.minimum(
            self.minimum[recv], column_min[recv]
        )
        return True

    def reset_nodes(self, pids: Sequence[int]) -> None:
        self.minimum[pids] = self.initial[pids]
        self.halted[pids] = False
        self.decided[pids] = False

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        return rnd + 1

    def finalize(self, processes: Sequence[Process]) -> None:
        for pid, proc in enumerate(processes):
            proc.minimum = int(self.minimum[pid])
            if self.halted[pid]:
                proc.halted = True
            if self.decided[pid]:
                proc.decide(int(self.decision[pid]))
