"""Parameter derivation shared by all algorithms.

The paper fixes its constants for the proofs (overlay degree
``d = 5^8``, ``5t`` little nodes, probing threshold
``δ(d) = ½(d^{7/8} − d^{5/8})``, probing duration ``2 + lg n``).  Those
constants make the *asymptotic* analysis go through but are unusable at
simulation scale (``5^8 = 390625 > n``), so this module centralises the
mapping from the paper's formulas to practical values:

* the *shape* of every formula is preserved (``δ`` is computed from the
  actual degree with the paper's formula; probing runs ``2 + ⌈lg m⌉``
  rounds; flooding runs the paper's worst-case path length);
* only magnitudes are capped (degree at :data:`DEGREE_CAP` or ``m − 1``).

``ProtocolParams.paper()`` returns the uncapped values for the
bound-checking tests and documentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from repro.graphs.ramanujan import paper_delta

__all__ = ["ProtocolParams", "DEGREE_CAP", "LITTLE_FLOOR"]

#: Practical cap on overlay vertex degree.  32 keeps the simulations
#: fast while giving λ/d ≈ 0.35, comfortably enough expansion for the
#: flooding and probing arguments at the scales we run (n ≤ ~4000).
DEGREE_CAP = 32

#: Minimum size of the little-node committee.  The paper assumes ``5t``
#: little nodes with ``t ≥ 1``; the floor keeps the committee overlay
#: non-degenerate for ``t = 0`` and tiny ``t``.
LITTLE_FLOOR = 8


def _ceil_log2(x: int) -> int:
    return max(1, math.ceil(math.log2(max(2, x))))


@dataclass(frozen=True)
class ProtocolParams:
    """All derived quantities for one ``(n, t)`` instance.

    Attributes
    ----------
    n, t:
        System size and the fault bound, both known to every node
        (Section 2: "the numbers n and t are known ... and can be parts
        of codes of algorithms").
    seed:
        Seed of every deterministic overlay construction; part of the
        algorithm code, so two nodes always build identical graphs.
    degree_cap:
        Practical overlay-degree cap (see module docstring).

    Every derived quantity is a ``cached_property``: computed on first
    read and kept in the instance ``__dict__`` (one ``ProtocolParams``
    is read by every component of every process of a run).  Equality,
    hashing, ``repr`` and :meth:`with_seed` see only the fields.
    """

    n: int
    t: int
    seed: int = 0
    degree_cap: int = DEGREE_CAP

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.t < self.n:
            raise ValueError(f"t must satisfy 0 <= t < n, got t={self.t}, n={self.n}")

    # -- little nodes ----------------------------------------------------

    @cached_property
    def little_count(self) -> int:
        """Size of the little-node committee: ``min(n, max(5t, floor))``."""
        return min(self.n, max(5 * self.t, LITTLE_FLOOR))

    def is_little(self, pid: int) -> bool:
        """Little nodes are the ``little_count`` smallest names."""
        return pid < self.little_count

    def related_little(self, pid: int) -> int:
        """The unique little node related to ``pid`` (same residue
        modulo the committee size)."""
        return pid % self.little_count

    def related_nodes(self, little_pid: int) -> list[int]:
        """All non-little nodes related to ``little_pid``."""
        m = self.little_count
        return list(range(little_pid + m, self.n, m))

    # -- the committee overlay G (AEA Parts 1-2, Gossip probing) ---------

    @cached_property
    def little_degree(self) -> int:
        """Practical degree of the committee Ramanujan graph ``G``.

        Paper: ``d = 5^8``; here capped at ``degree_cap`` and at
        ``m − 1`` (complete committee for tiny committees).
        """
        return min(self.degree_cap, max(1, self.little_count - 1))

    @cached_property
    def little_delta(self) -> int:
        """Probing threshold ``δ`` from the paper formula on the actual degree."""
        return paper_delta(self.little_degree)

    @cached_property
    def little_probe_rounds(self) -> int:
        """Probing duration ``γ = 2 + ⌈lg m⌉`` (Fig. 1 Part 2)."""
        return 2 + _ceil_log2(self.little_count)

    @cached_property
    def little_flood_rounds(self) -> int:
        """Part 1 flooding duration, the paper's ``5t − 1`` worst-case
        path length over the committee (at least 1)."""
        return max(1, self.little_count - 1)

    # -- the full overlay for Many-Crashes-Consensus ---------------------

    @cached_property
    def alpha(self) -> float:
        """``α = t / n``."""
        return self.t / self.n

    @cached_property
    def mcc_degree(self) -> int:
        """Degree ``d(α) = (4/(1−α))^8`` capped for practicality.

        The paper's value explodes as ``α → 1``; the cap grows with
        ``1/(1−α)`` (more faults need denser overlays) but stays
        simulation-friendly.
        """
        if self.t == 0:
            return min(self.degree_cap, max(1, self.n - 1))
        nominal = (4.0 / (1.0 - self.alpha)) ** 8
        practical_cap = max(
            self.degree_cap, math.ceil(3.0 * self.degree_cap / (1.0 - self.alpha))
        )
        return min(max(1, self.n - 1), min(math.ceil(nominal), practical_cap))

    @cached_property
    def mcc_delta(self) -> int:
        """Probing threshold for the full overlay.

        The paper formula on the capped degree can exceed the minimum
        degree the overlay retains after ``t`` adversarial crashes;
        survival then becomes impossible and the algorithm deadlocks.
        We take the paper formula clipped to ``(1−α)·d/4``, which keeps
        the survival-set argument alive at practical degrees.
        """
        formula = paper_delta(self.mcc_degree)
        safety = max(1, math.floor((1.0 - self.alpha) * self.mcc_degree / 4.0))
        return max(1, min(formula, safety))

    @cached_property
    def mcc_probe_rounds(self) -> int:
        """``2 + ⌈lg n⌉`` (Fig. 4 Part 2)."""
        return 2 + _ceil_log2(self.n)

    @cached_property
    def mcc_flood_rounds(self) -> int:
        """Part 1 flooding duration ``n − 1`` (Fig. 4)."""
        return max(1, self.n - 1)

    @cached_property
    def mcc_phase_count(self) -> int:
        """``1 + ⌈lg((1+3α)n/4)⌉`` phases in Part 3 (Fig. 4)."""
        m_value = (1.0 + 3.0 * self.alpha) * self.n / 4.0
        return 1 + max(1, math.ceil(math.log2(max(2.0, m_value))))

    # -- Spread-Common-Value ----------------------------------------------

    @cached_property
    def scv_spread_rounds(self) -> int:
        """Part 1 duration ``⌈log_{3/2}((2n/5) / max(t, n/t))⌉`` plus
        slack (Fig. 2).

        ``t = 0`` degenerates the formula; the practical reading is the
        expander-flooding time ``O(log n)``, which the slack term also
        guards for small committees.
        """
        if self.t == 0:
            denominator = float(self.n)
        else:
            denominator = max(float(self.t), self.n / self.t)
        numerator = max(2.0 * self.n / 5.0, 1.0)
        base = math.log(max(numerator / denominator, 1.0), 1.5)
        return math.ceil(base) + _ceil_log2(self.n) + 2

    @cached_property
    def scv_direct_inquiry(self) -> bool:
        """Whether Part 2 uses the ``t² ≤ n`` branch (inquire all little
        nodes directly)."""
        return self.t * self.t <= self.n

    @cached_property
    def scv_phase_count(self) -> int:
        """``⌈lg(t + 1)⌉`` phases in the doubling branch, plus slack.

        The +2 slack covers the gap between the paper's probabilistic
        Lemma 5 graphs and our seeded instantiation; the final phases
        are degree-capped complete graphs so termination is guaranteed.
        """
        return max(1, math.ceil(math.log2(self.t + 2))) + 2

    # -- Gossip -----------------------------------------------------------

    @cached_property
    def gossip_phase_count(self) -> int:
        """``⌈lg n⌉`` phases in each gossip part (Fig. 5)."""
        return _ceil_log2(self.n)

    # -- Byzantine / AB-Consensus ------------------------------------------

    @cached_property
    def byz_little_count(self) -> int:
        """Committee for AB-Consensus: ``min(n, max(5t, floor))``.

        Fig. 7 requires ``t < n/2`` overall and uses ``5t`` little
        nodes; when ``5t > n`` the committee is everyone (the paper's
        linear-communication regime is ``t = O(√n)`` anyway).
        """
        return min(self.n, max(5 * self.t, LITTLE_FLOOR))

    @cached_property
    def byz_certificate_threshold(self) -> int:
        """Signatures required on an authenticated common set.

        Paper: ``4t`` little signatures.  With ``m`` little nodes of
        which at most ``t`` are Byzantine, honest nodes can always
        gather ``m − t`` signatures and Byzantine nodes at most ``t``;
        any threshold in ``(t, m − t]`` is sound, and ``4t`` is exactly
        the paper's choice when ``m = 5t``.
        """
        m = self.byz_little_count
        return max(1, min(4 * self.t, m - self.t)) if self.t > 0 else 1

    # -- misc ---------------------------------------------------------------

    def with_seed(self, seed: int) -> "ProtocolParams":
        """A copy with a different overlay seed."""
        return replace(self, seed=seed)

    @classmethod
    def paper(cls, n: int, t: int) -> "ProtocolParams":
        """The paper's uncapped constants (degree ``5^8``), for
        documentation and bound computation only -- building overlays at
        this degree is infeasible unless ``n`` is astronomically large.
        """
        return cls(n=n, t=t, degree_cap=5**8)
