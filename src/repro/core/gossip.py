"""Algorithm ``Gossip`` (Fig. 5, Theorem 9), for ``t < n/5``.

Every node starts with a *rumor*; every node must decide on an *extant
set* of ``(node, rumor)`` pairs such that (1) a node that crashed before
sending anything appears in no decided set, and (2) a node that halted
operational appears in every decided set (decided sets need not be
equal).

Structure (little nodes = the committee of smallest names):

* **Part 1 -- build extant sets.**  ``⌈lg n⌉`` phases; in phase ``i`` a
  little node that survived the previous phase's probing *inquires* its
  neighbors in the Lemma 5 graph ``G_i`` (degree doubling per phase)
  that are still absent from its extant set; inquired nodes respond with
  their own pair; then the little nodes run local probing on the
  committee graph ``G``, piggybacking their extant sets.
* **Part 2 -- build completion sets.**  Symmetric phases in which little
  survivors *push* their (now complete) extant sets to ``G_i`` neighbors
  not yet in their *completion set* (the set of nodes known to have been
  served), and probing spreads completion sets so the little nodes share
  the coverage work.

Implementation note: probe messages logically carry "the current extant
set" (linear-size messages, as the paper states); on the wire we ship a
*delta* since this sender's previous probe send, while the charged bit
size is that of the full set (:class:`SetDelta.bits_size`).  This is
behaviour-preserving because knowledge is monotone and delivery between
operational nodes is guaranteed, and it keeps the simulator's processing
cost near-linear.

A node's extant set maps a pid to the ``(pid, rumor)`` pair object as a
message delivered it: deltas, pushes and inquiry responses forward those
objects and the decision lists them in pid order, so in memory every
node shares the one pair its owner created (over a wire each host holds
decoded copies).  A run holds ``n`` pairs, not ``n²``:

>>> from repro import run_gossip
>>> result = run_gossip(["a", "b", "c", "d", "e", "f"], 1, crashes=None)
>>> result.decisions[0]
((0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e'), (5, 'f'))
>>> all(mine is yours for mine, yours in zip(result.decisions[0], result.decisions[5]))
True
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional

from repro.core.local_probe import LocalProbe
from repro.core.params import ProtocolParams
from repro.graphs.families import scv_inquiry_graph
from repro.graphs.graph import Graph
from repro.graphs.ramanujan import certified_ramanujan_graph
from repro.sim.process import Multicast, Process

__all__ = ["GossipProcess", "SetDelta", "gossip_overlay"]

_INQUIRY = 1

#: Bits charged per extant-set entry: a node name (~log n, padded), a
#: rumor word and framing.  Only the totals matter for the experiments.
_ENTRY_BITS = 48


class SetDelta:
    """Wire form of "the current extant/completion set".

    ``entries`` carries only the pairs added since this sender's last
    probe send; ``full_size`` is the size of the sender's full set, used
    both for bit accounting (the paper sends the whole set) and as a
    consistency check.
    """

    __slots__ = ("entries", "full_size")

    def __init__(self, entries: tuple, full_size: int):
        self.entries = entries
        self.full_size = full_size

    def bits_size(self) -> int:
        return max(1, self.full_size * _ENTRY_BITS)


def gossip_overlay(params: ProtocolParams) -> Graph:
    """The committee probing graph ``G`` (paper: ``G(5t, 5^8)``)."""
    return certified_ramanujan_graph(
        params.little_count, params.little_degree, seed=params.seed
    )


class GossipProcess(Process):
    """Per-node gossip state machine."""

    def __init__(
        self,
        pid: int,
        params: ProtocolParams,
        rumor: Any,
        *,
        graph: Optional[Graph] = None,
    ):
        super().__init__(pid, params.n)
        self.params = params
        self.graph = graph if graph is not None else gossip_overlay(params)
        self.is_little = params.is_little(pid)

        #: Extant set: pid -> its ``(pid, rumor)`` pair as delivered;
        #: absent nodes are the missing keys ("nil pairs").
        self.extant: dict[int, tuple[int, Any]] = {pid: (pid, rumor)}
        #: Completion set (Part 2): nodes known to have been served.
        self.completion: set[int] = {pid}

        self.gamma = params.little_probe_rounds
        self.phase_len = 2 + self.gamma
        self.phases = params.gossip_phase_count
        self.part1_end = self.phases * self.phase_len
        self.end_round = 2 * self.part1_end

        self._survived_last = True  # phase 1 has no survival gate
        #: Whether this node performed the final (complete-graph) Part 1
        #: inquiry.  Part 2 pushes are gated on this in addition to the
        #: paper's previous-probing gate: a pusher that did the final
        #: inquiry provably holds the pair of every node alive at that
        #: round, which hardens condition (2) against the (rare) case of
        #: a node pausing late in Part 1 and recovering in Part 2.
        self._did_final_inquiry = False
        self._probe: Optional[LocalProbe] = None
        self._inquirers: list[int] = []
        #: pairs learned since the last probe send, in learning order
        self._extant_delta: list[tuple[int, Any]] = list(self.extant.values())
        self._completion_delta: set[int] = set(self.completion)

    # -- schedule ------------------------------------------------------------

    def _locate(self, rnd: int) -> Optional[tuple[int, int, int]]:
        """Map ``rnd`` to ``(part, phase_index, offset)``.

        ``part`` is 1 or 2, ``phase_index`` is 1-based, ``offset`` is the
        position within the phase: 0 = inquiry/push, 1 = response/absorb,
        ``2 .. 1+γ`` = probing rounds.
        """
        if rnd < 0 or rnd >= self.end_round:
            return None
        part = 1 if rnd < self.part1_end else 2
        local = rnd if part == 1 else rnd - self.part1_end
        return (part, local // self.phase_len + 1, local % self.phase_len)

    def _probe_for(self, rnd: int, offset: int) -> LocalProbe:
        """The probing instance of the current phase (created at its
        first probing round)."""
        if offset == 2 or self._probe is None or not self._probe.in_window(rnd):
            start = rnd - (offset - 2)
            if self._probe is None or self._probe.start_round != start:
                self._probe = LocalProbe(
                    neighbors=self.graph.neighbors(self.pid) if self.is_little else (),
                    delta=self.params.little_delta,
                    start_round=start,
                    rounds=self.gamma,
                    payload_fn=lambda: None,  # payloads are built inline
                )
        return self._probe

    # -- engine interface -------------------------------------------------------

    def send(self, rnd: int):
        where = self._locate(rnd)
        if where is None:
            return ()
        part, index, offset = where
        out: list = []
        if offset == 0:
            if self.is_little and self._survived_last:
                overlay = scv_inquiry_graph(self.n, index, self.params.seed)
                if part == 1:
                    if index == self.phases:
                        self._did_final_inquiry = True
                    absent = tuple(
                        q for q in overlay.neighbors(self.pid) if q not in self.extant
                    )
                    if absent:
                        out.append(Multicast(absent, _INQUIRY))
                elif self._did_final_inquiry:
                    fresh = tuple(
                        q
                        for q in overlay.neighbors(self.pid)
                        if q not in self.completion
                    )
                    if fresh:
                        payload = SetDelta(tuple(self.extant.values()), len(self.extant))
                        out.append(Multicast(fresh, payload))
                        self.completion.update(fresh)
                        self._completion_delta.update(fresh)
        elif offset == 1:
            if self._inquirers:
                out.append(Multicast(tuple(self._inquirers), self.extant[self.pid]))
                self._inquirers = []
        else:
            if self.is_little:
                probe = self._probe_for(rnd, offset)
                if not probe.paused and probe.neighbors:
                    if part == 1:
                        payload = SetDelta(tuple(self._extant_delta), len(self.extant))
                        self._extant_delta = []
                    else:
                        payload = SetDelta(
                            tuple(self._completion_delta), len(self.completion)
                        )
                        self._completion_delta = set()
                    out.append(Multicast(probe.neighbors, payload))
        return out

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        where = self._locate(rnd)
        if where is None:
            return
        part, _, offset = where
        if offset == 0:
            if part == 1:
                if inbox:
                    self._inquirers = [src for src, _ in inbox]
            else:
                # Part 2 pushes arrive in the same round they are sent.
                for _, payload in inbox:
                    self._absorb_extant(payload.entries)
        elif offset == 1:
            if part == 1:
                self._absorb_extant([pair for _, pair in inbox])
            # Part 2 offset 1 is an absorption slack round; pushes were
            # already merged at offset 0.
        else:
            if self.is_little:
                probe = self._probe_for(rnd, offset)
                probe.note_receptions(rnd, len(inbox))
                for _, payload in inbox:
                    if part == 1:
                        self._absorb_extant(payload.entries)
                    else:
                        fresh = [
                            q for q in payload.entries if q not in self.completion
                        ]
                        self.completion.update(fresh)
                        self._completion_delta.update(fresh)
                if probe.finished(rnd):
                    self._survived_last = probe.survived
        if rnd >= self.end_round - 1:
            self._finish()

    def _finish(self) -> None:
        """The last round: decide the pairs in pid order (one dict probe
        per pid, no sort) and halt."""
        self.decide(tuple(filter(None, map(self.extant.get, range(self.n)))))
        self.halt()

    def halt(self) -> None:
        super().halt()
        # what only a running node needs (the decision keeps the pairs)
        self._probe = self._inquirers = None
        self._extant_delta = self._completion_delta = None

    def untouched(self) -> bool:
        """Whether this node is still in its initial state: it knows,
        has served and has probed nothing but itself (where a vec
        kernel may take over)."""
        own = [self.extant.get(self.pid)]
        return (
            list(self.extant.values()) == own
            and self._extant_delta == own
            and self.completion == self._completion_delta == {self.pid}
            and self._survived_last
            and not self._did_final_inquiry
            and self._probe is None
            and not self._inquirers
        )

    def next_activity(self, rnd: int) -> int:
        if self.is_little:
            return rnd + 1
        if self._inquirers:
            return rnd + 1
        return max(rnd + 1, self.end_round - 1)

    # -- internals ----------------------------------------------------------------

    def _absorb_extant(self, pairs) -> None:
        # ``pairs`` name no pid twice (a sender's extant values, or the
        # responses of distinct responders).
        extant = self.extant
        new = [pair for pair in pairs if pair[0] not in extant]
        if new:
            extant.update(zip(map(itemgetter(0), new), new))
            self._extant_delta += new
