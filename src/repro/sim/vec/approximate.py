"""Structure-of-arrays kernel for approximate consensus.

The baseline (:mod:`repro.baselines.approximate`) is flooding's shape
with a float estimate: for ``t + 1 + phases`` rounds every node
multicasts its estimate (64 bits a message) to everyone else and
replaces it with an average of what it saw, its own value included.
The state is one float64 vector and the round is one delivery matrix
whose column ``q`` -- diagonal set, a node always sees itself -- selects
the estimates node ``q`` averages:

* ``midpoint`` -- masked column ``(min + max) / 2.0``: the same two
  IEEE-754 operations the process performs, so the result is bit-equal;
* ``mean`` -- ``math.fsum(column) / count``, kept as ``fsum`` because
  numpy's pairwise summation is not bit-equal to it.  It runs once per
  *distinct* column, and in a round without partial sends or blocked
  links every receiver averages the same multiset (all senders), so a
  clean round is one call.

Not dispatched yet.  No :class:`repro.families.Family` record names
this class: ``benchmarks/perf/test_perf_selfcheck.py``, frozen for a
change that claims a gain, requires ``core.approximate.vec_s`` to be
non-zero on some workload, and a kernel makes it read 0.  Until that
name joins the self-check's ``reads_zero`` set, ``backend="vec"`` runs
this family on the engine and ``tests/test_vec_parity.py`` drives the
kernel through :class:`~repro.sim.vec.engine.VecEngine` directly.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.sim.process import Process
from repro.sim.vec.engine import Kernel, VecMetricsSink, deliver_broadcast

__all__ = ["ApproximateKernel"]

_FLOAT_BITS = 64  # payload_bits of a float


class ApproximateKernel(Kernel):
    def __init__(self, rounds: int, mode: str, values: np.ndarray) -> None:
        self.n = len(values)
        self.rounds = rounds
        self.mean = mode == "mean"
        self.initial = values.copy()
        self.value = values
        self.halted = np.zeros(self.n, dtype=bool)
        self.decided = np.zeros(self.n, dtype=bool)

    @classmethod
    def build(
        cls, processes: Sequence[Process]
    ) -> Optional["ApproximateKernel"]:
        """Vectorize fresh approximate-consensus processes; decline a
        vector that mixes ``t`` / ``mode`` / ``rounds`` or holds a
        non-finite estimate (``fsum`` raises on ``inf - inf``, which a
        masked column cannot reproduce)."""
        first = processes[0]
        shape = (first.t, first.mode, first.rounds)
        for proc in processes:
            if (proc.t, proc.mode, proc.rounds) != shape:
                return None
            if proc.halted or proc.decided or not math.isfinite(proc.value):
                return None
        values = np.array([proc.value for proc in processes], dtype=np.float64)
        return cls(first.rounds, first.mode, values)

    def step(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> bool:
        if rnd >= self.rounds:
            return False
        matrix = deliver_broadcast(senders, keep, blocked, sink)
        counts = matrix.sum(axis=1).astype(np.int64)
        delivered_any = bool(counts.any())
        if delivered_any:
            sink.add_array(rnd, counts, counts * _FLOAT_BITS)
        recv = np.nonzero(receivers)[0]
        if recv.size:
            np.fill_diagonal(matrix, True)
            # row i: whose estimates receiver recv[i] averages
            seen = matrix.T[recv]
            if self.mean:
                self.value[recv] = self._means(seen)
            else:
                low = np.where(seen, self.value, np.inf).min(axis=1)
                high = np.where(seen, self.value, -np.inf).max(axis=1)
                # huge estimates overflow to inf, as the process's
                # float addition does, without numpy's warning
                with np.errstate(over="ignore"):
                    self.value[recv] = (low + high) / 2.0
            if rnd == self.rounds - 1:
                self.decided[recv] = True
                self.halted[recv] = True
        return delivered_any

    def _means(self, seen: np.ndarray) -> list[float]:
        """``fsum / count`` of the estimates each row of ``seen``
        selects, one ``fsum`` per distinct row."""
        means: dict[bytes, float] = {}
        out = []
        for row in seen:
            key = row.tobytes()
            mean = means.get(key)
            if mean is None:
                values = self.value[row].tolist()
                mean = means[key] = math.fsum(values) / len(values)
            out.append(mean)
        return out

    def reset_nodes(self, pids: Sequence[int]) -> None:
        self.value[pids] = self.initial[pids]
        self.halted[pids] = False
        self.decided[pids] = False

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        return rnd + 1

    def finalize(self, processes: Sequence[Process]) -> None:
        for pid, proc in enumerate(processes):
            proc.value = float(self.value[pid])
            if self.halted[pid]:
                proc.halted = True
            if self.decided[pid]:
                proc.decide(proc.value)
