"""Algorithm ``Checkpointing`` (Fig. 6, Theorem 10), for ``t < n/5``.

Part 1 runs :class:`~repro.core.gossip.GossipProcess` with a dummy rumor
so every node assembles an extant set of node names.  Part 2 runs ``n``
concurrent instances of ``Few-Crashes-Consensus`` -- the ``i``-th with
input 1 iff node ``i`` is present in the local extant set -- with the
per-instance messages of a round combined into one message (the paper:
"these messages are combined into one big message").

The combination is exact, not approximate: the ``n`` instances of the
OR-based consensus evolve identically in *control flow* (who floods,
who survives probing, who inquires) and differ only in the candidate
*bit*, so a round's combined message is the ``n``-bit candidate mask and
the generic integer-join implementation of
:class:`~repro.core.consensus.FewCrashesConsensusProcess` runs all
instances at once.  Bit accounting is honest: a mask message costs up to
``n`` bits (``payload_bits`` of the mask), while message *counts* --
the metric of Theorem 10 -- match the combined algorithm.

The decided extant set is ``{i : instance i decided 1}``, satisfying:

1. a node that crashed before sending anything is in no decided set
   (its bit is 0 everywhere, so validity forces 0);
2. a node that halted operational is in every decided set (gossip puts
   its pair everywhere, so every input bit is 1 and validity forces 1);
3. all decided sets are equal (per-instance agreement).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Any, Iterable, Optional

from repro.core.consensus import FewCrashesConsensusProcess
from repro.core.gossip import GossipProcess, gossip_overlay
from repro.core.params import ProtocolParams
from repro.graphs.families import spread_graph
from repro.graphs.graph import Graph
from repro.sim.process import Process

__all__ = ["CheckpointingProcess", "mask_to_set", "set_to_mask"]

#: The dummy rumor gossiped in Part 1 (its value is irrelevant; only
#: presence of the pair matters).
_DUMMY_RUMOR = 1


#: a byte -> 1 if it is the digit ``"1"``, else 0 (a ``translate`` table)
_DIGIT_BITS = bytes(byte == ord("1") for byte in range(256))


def set_to_mask(members: Iterable[int]) -> int:
    """Encode a set of pids as the bitmask consumed by the combined
    consensus instances, through its binary digits (``int(..., 2)``
    reads them in one pass, where or-ing bit by bit copies the int each
    time)."""
    members = tuple(members)
    if not members:
        return 0
    digits = bytearray(b"0") * (max(members) + 1)
    for pid in members:
        digits[pid] = 49  # ord("1")
    digits.reverse()  # most significant first
    return int(digits, 2)


@lru_cache(maxsize=1)
def mask_to_set(mask: int) -> frozenset[int]:
    """Decode a decision mask back into the extant set of pids, reading
    its binary digits least significant first (``bin`` builds them in
    one pass, where shifting bit by bit copies the int each time).

    The nodes of a run agree on one mask, so the last set decoded is
    kept and returned again: their decisions share one frozenset."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)  # no "0b"
    return frozenset(compress(range(len(digits)), digits))


class CheckpointingProcess(Process):
    """Per-node checkpointing state machine: gossip, then combined
    consensus."""

    def __init__(
        self,
        pid: int,
        params: ProtocolParams,
        *,
        graph: Optional[Graph] = None,
        spread: Optional[Graph] = None,
    ):
        super().__init__(pid, params.n)
        self.params = params
        self._overlay = graph if graph is not None else gossip_overlay(params)
        self._spread = spread if spread is not None else spread_graph(params.n, params.seed)
        self.gossip = _GossipPart(pid, params, _DUMMY_RUMOR, graph=self._overlay)
        self._consensus_start = self.gossip.end_round
        self.consensus: Optional[FewCrashesConsensusProcess] = None

    def _ensure_consensus(self) -> FewCrashesConsensusProcess:
        if self.consensus is None:
            # The gossip overlay and the AEA committee overlay are the
            # same deterministic graph (both G(little_count, d) with the
            # shared seed), so it is passed straight through.
            proc = FewCrashesConsensusProcess(
                self.pid,
                self.params,
                set_to_mask(self.gossip.extant),  # the pids it holds
                aea_graph=self._overlay,
                spread=self._spread,
            )
            # Shift the embedded consensus schedule to start after gossip.
            proc = _ShiftedConsensus(proc, self._consensus_start)
            self.consensus = proc
            self.gossip = None  # its extant set is the candidate now
        return self.consensus

    def send(self, rnd: int):
        if rnd < self._consensus_start:
            return self.gossip.send(rnd)
        return self._ensure_consensus().send(rnd)

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        if rnd < self._consensus_start:
            self.gossip.receive(rnd, inbox)
            if self.gossip.halted:
                # Gossip's last round: its extant set is final, so the
                # candidate is taken now and the gossip state let go.
                self._ensure_consensus()
            return
        consensus = self._ensure_consensus()
        consensus.receive(rnd, inbox)
        if consensus.halted:
            if consensus.decided:
                self.decide(mask_to_set(consensus.decision))
            self.halt()

    def next_activity(self, rnd: int) -> int:
        if rnd < self._consensus_start - 1:
            return min(self.gossip.next_activity(rnd), self._consensus_start)
        if rnd < self._consensus_start:
            return self._consensus_start
        return self._ensure_consensus().next_activity(rnd)


class _GossipPart(GossipProcess):
    """Gossip as Part 1: its last round halts without deciding, since
    the extant set it holds is the consensus candidate."""

    def _finish(self) -> None:
        self.halt()


class _ShiftedConsensus:
    """Run a :class:`FewCrashesConsensusProcess` with its schedule
    shifted by a fixed offset (so it can follow the gossip part)."""

    def __init__(self, inner: FewCrashesConsensusProcess, offset: int):
        self._inner = inner
        self._offset = offset

    def send(self, rnd: int):
        return self._inner.send(rnd - self._offset)

    def receive(self, rnd: int, inbox) -> None:
        self._inner.receive(rnd - self._offset, inbox)

    def next_activity(self, rnd: int) -> int:
        return self._inner.next_activity(rnd - self._offset) + self._offset

    @property
    def halted(self) -> bool:
        return self._inner.halted

    @property
    def decided(self) -> bool:
        return self._inner.decided

    @property
    def decision(self):
        return self._inner.decision
