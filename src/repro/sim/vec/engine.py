"""The vectorized round loop and its shared kernel machinery.

:class:`VecEngine` is a data plane under
:class:`~repro.sim.rounds.RoundControl` -- which owns the
rejoin-before-crash ordering, termination, fast-forward and the
everyone-crashed fixup -- with the per-process send/receive phases
replaced by one :meth:`Kernel.step` call per round.  What is left here
is what depends on the arrays: resetting rejoined nodes, the crash-round
partial-send ``keep`` budget and link filtering with drop accounting.
That :func:`repro.check.oracles.check_parity` holds field-for-field
against both engine paths is the parity wall's job
(``tests/test_vec_parity.py``), not a property of shared code.

A :class:`Kernel` owns all protocol state as numpy arrays and exposes
five operations:

* ``step(rnd, senders, receivers, keep, blocked, sink)`` -- execute one
  round for the boolean ``senders``/``receivers`` masks, honouring the
  ``keep`` partial-send budgets (pid -> remaining messages) and the
  ``blocked`` link mask, recording traffic into the sink; returns
  whether any message was delivered post-filter;
* ``reset_nodes(pids)`` -- churn rejoin: restore the listed nodes to
  their initial state (the engine restores an ``on_start`` snapshot);
* ``next_wake(rnd, active)`` -- earliest spontaneous activity among the
  active nodes, mirroring ``Process.next_activity`` for fast-forward;
* ``decisions()`` / ``finalize(processes)`` -- export decisions and
  write terminal state back onto the original process objects so
  :class:`~repro.sim.engine.RunResult` consumers see the usual surface.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.families import REGISTRY
from repro.obs.recorder import coerce_recorder
from repro.sim.adversary import CrashAdversary
from repro.sim.engine import RunResult, check_pid_order
from repro.sim.metrics import Metrics
from repro.sim.process import Process
from repro.sim.rounds import RoundControl

__all__ = [
    "Kernel",
    "VecEngine",
    "VecMetricsSink",
    "bit_length_array",
    "bool_transport",
    "build_kernel",
    "deliver",
    "deliver_broadcast",
]

_SHIFTS = (32, 16, 8, 4, 2, 1)


def bit_length_array(values: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` of a non-negative integer array.

    Binary-search by doubling shifts: six masked shift/accumulate passes
    cover the full 64-bit range, so the cost is O(n) array ops rather
    than a Python loop over elements.
    """
    v = values.astype(np.uint64, copy=True)
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in _SHIFTS:
        threshold = np.uint64(1) << np.uint64(shift)
        big = v >= threshold
        out[big] += shift
        v[big] >>= np.uint64(shift)
    out += v.astype(np.int64)  # remaining value is 0 or 1
    return out


def bool_transport(received: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """``received.T @ payload`` on the OR-AND semiring.

    The set-transport product of every kernel receive phase: cell
    ``(q, m)`` is True iff some sender whose message reached ``q``
    carried member ``m``.  Restricted to senders with a non-empty
    payload row (probe deltas are usually sparse) and computed through
    float32 BLAS -- numpy's boolean matmul is a non-BLAS loop an order
    of magnitude slower at committee sizes.  Exact: per-cell match
    counts are bounded by n, far below float32's 2**24 integer range.
    """
    n = received.shape[1]
    rows = received.any(axis=1) & payload.any(axis=1)
    idx = np.nonzero(rows)[0]
    if idx.size == 0:
        return np.zeros((n, payload.shape[1]), dtype=bool)
    lhs = received[idx].astype(np.float32)
    rhs = payload[idx].astype(np.float32)
    return (lhs.T @ rhs) > 0.5


def keep_prefix(row: np.ndarray, keep: int) -> None:
    """Truncate a boolean destination row to its first ``keep`` entries.

    Kernel send groups list destinations in ascending pid order, so the
    crash-round partial send (deliver the first ``keep`` point-to-point
    messages in the node's own send order) is exactly a prefix of the
    attempt row.
    """
    if keep <= 0:
        row[:] = False
        return
    idx = np.nonzero(row)[0]
    if idx.size > keep:
        row[idx[keep:]] = False


def deliver(
    attempts: np.ndarray,
    keep: Mapping[int, int],
    blocked: Optional[Mapping[int, frozenset[int]]],
    sink: "VecMetricsSink",
    first: int = 0,
) -> np.ndarray:
    """Turn attempt rows into delivery rows, in place; returns them.

    Row ``i`` of ``attempts`` is what sender ``first + i`` attempted
    this round -- a full ``(sender, receiver)`` matrix by default; a
    kernel with one sender a round passes that one row.  The sequence
    is the engine's (:func:`repro.sim.shard.collect_sends`, then
    :func:`~repro.sim.shard.apply_link_filter`): the crash-round
    ``keep`` budget truncates a row to a prefix, then blocked links are
    removed and tallied as drops -- a drop is an *attempted* message
    (post truncation) removed in transit, counted only for senders
    that actually attempted it.
    """
    rows, n = attempts.shape
    for pid, budget in keep.items():
        if 0 <= pid - first < rows:
            keep_prefix(attempts[pid - first], budget)
    if blocked:
        for src, dsts in blocked.items():
            if not dsts or not (0 <= src - first < rows):
                continue
            row = attempts[src - first]
            cols = [dst for dst in dsts if 0 <= dst < n and row[dst]]
            if cols:
                row[cols] = False
                sink.add_drops(len(cols))
    return attempts


def deliver_broadcast(
    senders: np.ndarray,
    keep: Mapping[int, int],
    blocked: Optional[Mapping[int, frozenset[int]]],
    sink: "VecMetricsSink",
) -> np.ndarray:
    """Delivery matrix of a round in which every sender multicasts to
    everyone else (:meth:`repro.sim.process.Process.everyone_else`,
    ascending, so a ``keep`` budget is a prefix of the row)."""
    n = len(senders)
    attempts = np.zeros((n, n), dtype=bool)
    attempts[senders] = True
    np.fill_diagonal(attempts, False)
    return deliver(attempts, keep, blocked, sink)


class VecMetricsSink:
    """Array-shaped accumulator that exports an exact :class:`Metrics`.

    Senders' counts and bits accumulate in ``int64`` arrays; per-round
    totals in a plain dict of Python ints.  ``to_metrics`` materialises
    Counters holding only nonzero Python-int entries, matching what the
    engine's ``record_send`` calls would have produced.
    """

    def __init__(self, n: int) -> None:
        self._messages = np.zeros(n, dtype=np.int64)
        self._bits = np.zeros(n, dtype=np.int64)
        self._per_round: dict[int, int] = {}
        self._dropped = 0

    def add_array(
        self, rnd: int, counts: np.ndarray, bits: np.ndarray
    ) -> None:
        """Record one round of per-sender message counts and bits."""
        self._messages += counts
        self._bits += bits
        total = int(counts.sum())
        if total:
            self._per_round[rnd] = self._per_round.get(rnd, 0) + total

    def add_drops(self, count: int) -> None:
        self._dropped += count

    def to_metrics(self, rounds: int) -> Metrics:
        metrics = Metrics()
        metrics.rounds = rounds
        metrics.messages = int(self._messages.sum())
        metrics.bits = int(self._bits.sum())
        metrics.dropped_messages = self._dropped
        for pid in np.nonzero(self._messages)[0]:
            metrics.per_node_messages[int(pid)] = int(self._messages[pid])
        for pid in np.nonzero(self._bits)[0]:
            metrics.per_node_bits[int(pid)] = int(self._bits[pid])
        for rnd in sorted(self._per_round):
            metrics.per_round_messages[rnd] = self._per_round[rnd]
        return metrics


class Kernel:
    """Interface every per-family step kernel implements.

    ``halted`` is a boolean array the engine reads for termination and
    sender eligibility; the kernel owns all other protocol state.
    """

    halted: np.ndarray

    def step(
        self,
        rnd: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        keep: Mapping[int, int],
        blocked: Optional[Mapping[int, frozenset[int]]],
        sink: VecMetricsSink,
    ) -> bool:
        raise NotImplementedError

    def reset_nodes(self, pids: Sequence[int]) -> None:
        raise NotImplementedError

    def next_wake(self, rnd: int, active: np.ndarray) -> int:
        raise NotImplementedError

    def finalize(self, processes: Sequence[Process]) -> None:
        raise NotImplementedError


def build_kernel(processes: Sequence[Process]) -> Optional[Kernel]:
    """Build the step kernel for a homogeneous kernel-family vector.

    Returns ``None`` (caller falls back to the engine) when the vector
    is empty, mixes process types, is of no family whose registry record
    names a kernel, or the kernel's factory declines the concrete
    instances (e.g. flooding inputs that are not plain machine-width
    ints).
    """
    if not processes:
        return None
    first_type = type(processes[0])
    if any(type(proc) is not first_type for proc in processes):
        return None
    for family in REGISTRY:
        if family.kernel is not None and family.process is first_type:
            module, _, name = family.kernel.partition(":")
            return getattr(import_module(module), name).build(processes)
    return None


class VecEngine:
    """Structure-of-arrays data plane under
    :class:`~repro.sim.rounds.RoundControl`."""

    def __init__(
        self,
        processes: Sequence[Process],
        adversary: CrashAdversary,
        kernel: Kernel,
        *,
        max_rounds: int = 100_000,
        fast_forward: bool = True,
        telemetry: Any = None,
    ) -> None:
        check_pid_order(processes)
        self.processes = list(processes)
        self.n = len(self.processes)
        self.adversary = adversary
        self.kernel = kernel
        self.max_rounds = max_rounds
        self.fast_forward = fast_forward
        #: wall-clock instrumentation (see repro.obs); normalised to
        #: None when disabled so the round loop only pays an `is not
        #: None` test per phase.  Spans: the control's round / rejoin /
        #: crash, and kernel.step (the vectorized send+receive body).
        self.telemetry = coerce_recorder(telemetry)
        self.round = 0
        self.crashed: set[int] = set()
        self.sink = VecMetricsSink(self.n)

    # CrashAdversary.crashes_for_round receives the engine; keep the
    # small surface adaptive adversaries would touch, although kernel
    # dispatch only admits oblivious adversary types.
    def operational(self, pid: int) -> bool:
        return pid not in self.crashed

    def _live(self) -> np.ndarray:
        """Mask of the nodes that are neither crashed nor halted."""
        live = ~self.kernel.halted
        if self.crashed:
            live[list(self.crashed)] = False
        return live

    def run(self) -> RunResult:
        kernel = self.kernel
        tel = self.telemetry
        if tel is not None:
            tel.run_begin(
                backend="vec", n=self.n, kernel=type(kernel).__name__
            )
        ctl = RoundControl(
            self,
            self.adversary,
            max_rounds=self.max_rounds,
            fast_forward=self.fast_forward,
            telemetry=tel,
        )
        rnd = ctl.begin()
        while rnd is not None:
            rejoining = ctl.rejoining(rnd)
            if rejoining:
                kernel.reset_nodes(rejoining)
                self.crashed.difference_update(rejoining)
            crashing, blocked = ctl.open(rnd, rejoining)
            senders = self._live()
            actually_crashing = [pid for pid in crashing if senders[pid]]
            keep = {
                pid: crashing[pid]
                for pid in actually_crashing
                if crashing[pid] is not None
            }
            receivers = senders
            if actually_crashing:
                receivers = senders.copy()
                receivers[actually_crashing] = False
            if tel is not None:
                drops_before = self.sink._dropped
            delivered_any = kernel.step(
                rnd, senders, receivers, keep, blocked, self.sink
            )
            if tel is not None:
                t_step = ctl.phase("kernel.step", rnd)
                dropped = self.sink._dropped - drops_before
                if dropped:
                    tel.point("drop", rnd, t_step, count=dropped)
            self.crashed.update(actually_crashing)
            live = self._live()
            rnd = ctl.close(
                rnd,
                delivered_any,
                not live.any(),
                lambda: kernel.next_wake(rnd, live) if live.any() else None,
            )
        kernel.finalize(self.processes)
        return ctl.seal(self.processes, self.sink.to_metrics(ctl.rounds))
