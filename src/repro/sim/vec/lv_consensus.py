"""Structure-of-arrays kernel for rotating-coordinator consensus.

In round ``r`` of :mod:`repro.baselines.lv_consensus` only node ``r``
sends -- one multicast of its current value to everyone else -- and
every receiver adopts it.  So a round is one attempt *row*, never an
``n x n`` matrix, and because values are only ever adopted the state is
an index array: ``holder[q]`` names the node whose *input* ``q``
currently holds.  The inputs themselves stay Python objects and their
``payload_bits`` are computed once, so any ``width`` runs here -- no
value ever has to fit a machine word.

Not dispatched yet.  No :class:`repro.families.Family` record names
this class: ``benchmarks/perf/test_perf_selfcheck.py``, frozen for a
change that claims a gain, requires ``core.lv-consensus.vec_s`` to be
non-zero on some workload, and a kernel makes it read 0.  Until that
name joins the self-check's ``reads_zero`` set, ``backend="vec"`` runs
this family on the engine and ``tests/test_vec_parity.py`` drives the
kernel through :class:`~repro.sim.vec.engine.VecEngine` directly.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.sim.process import Process, payload_bits
from repro.sim.vec.engine import Kernel, VecMetricsSink, deliver

__all__ = ["LVConsensusKernel"]


class LVConsensusKernel(Kernel):
    def __init__(
        self, rounds: int, inputs: Sequence[Any], bits: np.ndarray
    ) -> None:
        self.n = len(inputs)
        self.rounds = rounds
        self.inputs = inputs
        self.bits = bits
        self.holder = np.arange(self.n)
        self.halted = np.zeros(self.n, dtype=bool)
        self.decided = np.zeros(self.n, dtype=bool)

    @classmethod
    def build(
        cls, processes: Sequence[Process]
    ) -> Optional["LVConsensusKernel"]:
        """Vectorize fresh lv-consensus processes; decline a vector
        that mixes ``t`` or holds a value ``payload_bits`` rejects (the
        engine raises for it only once its holder sends)."""
        rounds = processes[0].rounds
        for proc in processes:
            if proc.rounds != rounds or proc.halted or proc.decided:
                return None
        inputs = [proc.value for proc in processes]
        try:
            bits = np.array(
                [payload_bits(value) for value in inputs], dtype=np.int64
            )
        except TypeError:
            return None
        return cls(rounds, inputs, bits)

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
        n = self.n
        delivered_any = False
        # the coordinator of round rnd is pid rnd
        if rnd < n and senders[rnd]:
            row = np.ones(n, dtype=bool)
            row[rnd] = False
            deliver(row[None, :], keep, blocked, sink, first=rnd)
            count = int(row.sum())
            if count:
                delivered_any = True
                counts = np.zeros(n, dtype=np.int64)
                counts[rnd] = count
                sink.add_array(
                    rnd, counts, counts * self.bits[self.holder[rnd]]
                )
                self.holder[row & receivers] = self.holder[rnd]
        if rnd == self.rounds - 1:
            self.decided[receivers] = True
            self.halted[receivers] = True
        return delivered_any

    def reset_nodes(self, pids: Sequence[int]) -> None:
        self.holder[pids] = pids
        self.halted[pids] = False
        self.decided[pids] = False

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        return rnd + 1

    def finalize(self, processes: Sequence[Process]) -> None:
        for pid, proc in enumerate(processes):
            proc.value = self.inputs[self.holder[pid]]
            if self.halted[pid]:
                proc.halted = True
            if self.decided[pid]:
                proc.decide(proc.value)
