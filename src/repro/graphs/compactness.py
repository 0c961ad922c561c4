"""Compactness, survival subsets and dense neighborhoods (Section 2-3).

These are the combinatorial notions the paper's local-probing analysis
is built on:

* a ``δ``-*survival subset* ``C ⊆ B``: every vertex of ``G|C`` has
  degree at least ``δ`` (Proposition 1 shows every member of a survival
  subset survives local probing);
* the fixed-point operator ``F_B`` from the proof of Theorem 2, whose
  complement is the canonical maximal survival subset;
* ``(γ, δ)``-*dense neighborhoods* (the survive/not-survive
  characterisation of Proposition 1);
* ``(ℓ, ε, δ)``-*compactness* checking, by direct search over given or
  sampled vertex subsets.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Optional

from repro.graphs.graph import Graph

__all__ = [
    "compactness_profile",
    "dense_neighborhood",
    "generalized_neighborhood",
    "is_survival_subset",
    "survival_subset",
]


def survival_subset(graph: Graph, vertices: Iterable[int], delta: int) -> frozenset[int]:
    """The maximal ``δ``-survival subset of ``B = vertices``.

    Computes the fixed point ``B* = ∪ Y_i`` of the operator ``F_B`` from
    Theorem 2 (iteratively absorb vertices with fewer than ``δ``
    neighbors among the not-yet-absorbed) and returns ``C = B \\ B*``.
    ``C`` may be empty; when non-empty, every vertex of ``G|C`` has at
    least ``δ`` neighbors in ``C``.
    """
    alive = set(vertices)
    degrees = {v: sum(1 for u in graph.adj[v] if u in alive) for v in alive}
    queue = deque(v for v, deg in degrees.items() if deg < delta)
    queued = set(queue)
    while queue:
        victim = queue.popleft()
        if victim not in alive:
            continue
        alive.discard(victim)
        for u in graph.adj[victim]:
            if u in alive:
                degrees[u] -= 1
                if degrees[u] < delta and u not in queued:
                    queue.append(u)
                    queued.add(u)
    return frozenset(alive)


def is_survival_subset(
    graph: Graph, base: Iterable[int], candidate: Iterable[int], delta: int
) -> bool:
    """Whether ``candidate ⊆ base`` is a ``δ``-survival subset for ``base``."""
    base_set = set(base)
    cand_set = set(candidate)
    if not cand_set <= base_set:
        return False
    for v in cand_set:
        inside = sum(1 for u in graph.adj[v] if u in cand_set)
        if inside < delta:
            return False
    return True


def generalized_neighborhood(
    graph: Graph, sources: Iterable[int], radius: int
) -> frozenset[int]:
    """``N^i_G(W)``: vertices within distance ``radius`` of ``sources``."""
    frontier = set(sources)
    seen = set(frontier)
    for _ in range(radius):
        nxt: set[int] = set()
        for u in frontier:
            for v in graph.adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def dense_neighborhood(
    graph: Graph,
    center: int,
    gamma: int,
    delta: int,
    within: Optional[Iterable[int]] = None,
) -> Optional[frozenset[int]]:
    """A maximal ``(γ, δ)``-dense neighborhood for ``center``, or ``None``.

    Definition (Section 2): ``S ⊆ N^γ(center)`` such that every vertex
    of ``S ∩ N^{γ-1}(center)`` has at least ``δ`` neighbors in ``S``.
    The maximal such ``S`` is obtained by pruning: start from the full
    ball and repeatedly delete inner vertices violating the degree
    condition.  Returns ``None`` when the fixed point no longer contains
    ``center`` (then no dense neighborhood for ``center`` exists, since
    pruning preserves all dense neighborhoods).
    """
    allowed = set(within) if within is not None else set(range(graph.n))
    if center not in allowed:
        return None
    inner_ball = generalized_neighborhood(graph, [center], gamma - 1) & allowed
    ball = generalized_neighborhood(graph, [center], gamma) & allowed
    candidate = set(ball)
    changed = True
    while changed:
        changed = False
        for v in list(candidate & inner_ball):
            inside = sum(1 for u in graph.adj[v] if u in candidate)
            if inside < delta:
                candidate.discard(v)
                changed = True
    if center not in candidate:
        return None
    return frozenset(candidate)


def compactness_profile(
    graph: Graph,
    ell: int,
    delta: int,
    *,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Empirical ``(ℓ, ε, δ)``-compactness: the worst ratio ``|C|/ℓ``.

    Samples ``trials`` vertex sets ``B`` of size ``ell`` (random plus
    BFS-ball-shaped sets, which are the hardest for survival since
    their boundary is thin) and reports the minimum
    over samples of ``|survival_subset(B)| / ell``.  Theorem 2 predicts
    at least ``3/4`` for genuinely Ramanujan graphs with the paper's
    parameters.
    """
    if not 1 <= ell <= graph.n:
        raise ValueError(f"ell must be within [1, n], got {ell}")
    rng = random.Random(seed)
    worst = 1.0
    samples: list[set[int]] = []
    for _ in range(trials):
        samples.append(set(rng.sample(range(graph.n), ell)))
    for _ in range(max(1, trials // 4)):
        start = rng.randrange(graph.n)
        ball: list[int] = []
        seen = {start}
        queue = deque([start])
        while queue and len(ball) < ell:
            u = queue.popleft()
            ball.append(u)
            for v in graph.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(ball) == ell:
            samples.append(set(ball))
    for subset in samples:
        surviving = survival_subset(graph, subset, delta)
        worst = min(worst, len(surviving) / ell)
    return worst
