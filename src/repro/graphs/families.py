"""Per-phase overlay graph families used by the algorithms.

Three families appear in the paper:

* graph ``H`` (Spread-Common-Value Part 1, AB-Consensus Part 3): a
  constant-degree Ramanujan graph with degree ``Δ ≥ 64``;
* the inquiry graphs ``G_i`` of Lemma 5 (SCV Part 2, Gossip): random
  graphs where each vertex draws ``b_i = 10·2^i`` Bernoulli neighbors,
  guaranteeing large external neighborhoods for small sets;
* the phase graphs of Many-Crashes-Consensus Part 3: Ramanujan graphs
  ``G(2n, d_i)`` with ``d_i = 64/(3(1−α)(1+3α))·2^i``.

All are deterministic functions of their parameters and are memoised.
Degrees are capped at ``n − 1``; once a family's degree reaches the cap
the graph is complete, which realises the paper's final phases (whose
theoretical degrees exceed ``n``) exactly.
"""

from __future__ import annotations

import math
import random

from repro.graphs.graph import Graph
# One memo for every overlay, so ``clear_graph_cache`` drops these too.
from repro.graphs.ramanujan import _CACHE, certified_ramanujan_graph, complete_graph

__all__ = [
    "mcc_phase_degree",
    "mcc_phase_graph",
    "random_out_graph",
    "scv_inquiry_degree",
    "scv_inquiry_graph",
    "spread_graph",
]

#: Practical degree for the spreading graph H.  The paper sets Δ ≥ 64 to
#: get edge expansion ≥ Δ/3; degree 16 keeps simulations fast while the
#: flooding analysis only needs *some* constant expansion (checked by
#: the Lemma 6 shape test).
SPREAD_DEGREE = 16

#: Base ``b_i = SCV_INQUIRY_BASE · 2^i`` of the Lemma 5 family (paper: 10).
SCV_INQUIRY_BASE = 4


def spread_graph(n: int, seed: int = 0) -> Graph:
    """Graph ``H``: a certified constant-degree expander on all nodes."""
    return certified_ramanujan_graph(n, min(SPREAD_DEGREE, max(1, n - 1)), seed=seed)


def random_out_graph(n: int, out_degree: int, seed: int, name: str = "") -> Graph:
    """Symmetrised random out-degree graph (Lemma 5 construction).

    Every vertex draws ``out_degree`` distinct targets uniformly; the
    union of choices, symmetrised, is the edge set.  This mirrors the
    probabilistic-method construction in Lemma 5 (there via Bernoulli
    trials of mean ``b_i``); a positive-probability graph is realised by
    fixing the seed.
    """
    if out_degree >= n - 1:
        return complete_graph(n)
    key = ("out", n, out_degree, seed)
    if key in _CACHE:
        return _CACHE[key]
    rng = random.Random((seed << 20) ^ (n << 8) ^ out_degree)
    edges = []
    population = range(n)
    for u in range(n):
        for v in rng.sample(population, out_degree + 1):
            if v != u:
                edges.append((u, v))
    graph = Graph.from_edges(n, edges, name=name or f"Out({n},{out_degree})#s{seed}")
    _CACHE[key] = graph
    return graph


def scv_inquiry_degree(i: int, n: int) -> int:
    """Out-degree ``b_i = SCV_INQUIRY_BASE · 2^i`` capped at ``n − 1``."""
    return min(SCV_INQUIRY_BASE * (2**i), max(1, n - 1))


def scv_inquiry_graph(n: int, i: int, seed: int = 0) -> Graph:
    """The Lemma 5 graph ``G_i`` on all ``n`` nodes for phase ``i``."""
    return random_out_graph(
        n, scv_inquiry_degree(i, n), seed + 1000 + i, name=f"G_{i}({n})"
    )


def mcc_phase_degree(i: int, n: int, alpha: float) -> int:
    """Degree ``d_i = 64/(3(1−α)(1+3α))·2^i`` capped at ``n − 1``.

    ``α = t/n``; the cap realises the paper's final phases, whose
    nominal degree exceeds ``n`` (the complete graph is the only
    ``(n-1)``-regular graph and is trivially Ramanujan).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    base = 64.0 / (3.0 * (1.0 - alpha) * (1.0 + 3.0 * alpha)) if alpha > 0 else 8.0
    nominal = math.ceil(base * (2**i))
    return min(nominal, max(1, n - 1))


def mcc_phase_graph(n: int, i: int, alpha: float, seed: int = 0) -> Graph:
    """Phase graph for Many-Crashes-Consensus Part 3.

    The paper uses Ramanujan ``G(2n, d_i)``; here the graph lives on the
    ``n`` actual nodes (the ``2n`` in the paper is an analysis
    convenience for Theorem 4's disjoint-set argument).  Constructed via
    the random-out family, which has the required vertex expansion for
    the Part 3 argument, and is much cheaper than spectral certification
    for the large per-phase degrees.
    """
    degree = mcc_phase_degree(i, n, alpha)
    out = max(1, degree // 2)
    return random_out_graph(n, out, seed + 5000 + i, name=f"MCC_G_{i}({n})")
