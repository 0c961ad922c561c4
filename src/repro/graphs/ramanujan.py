"""The (near-)Ramanujan overlay graphs of paper Section 3.

The paper assumes explicit Ramanujan graphs ``G(n, d)`` with constant
degree (e.g. ``d = 5^8``) exist for every ``n``.  Explicit families
exist only for special ``(n, d)`` pairs, so this reproduction draws
one generator for every ``n``: :func:`certified_ramanujan_graph` builds
a seeded random ``d``-regular graph with a stdlib pairing generator,
then checks that its measured ``λ`` meets the (slackened) Ramanujan
bound.  Random regular graphs are near-Ramanujan with high probability
(Friedman's theorem).  The check never changes the graph: the result is
a function of ``(n, d, seed)`` alone, and a graph that fails the check
raises instead of being replaced.

Constructed graphs are memoised: benchmark sweeps rebuild the same
overlays many times.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.graphs.expander import spectral_certificate
from repro.graphs.graph import Graph

__all__ = [
    "certified_ramanujan_graph",
    "clear_graph_cache",
    "complete_graph",
    "paper_delta",
]

#: Multiplicative slack admitted on the Ramanujan bound.
SLACK = 0.12

#: Every memoised overlay of :mod:`repro.graphs`, keyed by construction.
_CACHE: dict[tuple, Graph] = {}


def clear_graph_cache() -> None:
    """Drop all memoised graphs (used by tests and the perf ladder)."""
    _CACHE.clear()


def paper_delta(d: int) -> int:
    """``δ(d) = ½(d^{7/8} − d^{5/8})`` rounded up, and at least 1.

    This is the local-probing survival threshold the paper derives from
    the degree; we apply the same formula to the *practical* degree.
    """
    raw = 0.5 * (d ** (7.0 / 8.0) - d ** (5.0 / 8.0))
    return max(1, math.ceil(raw))


def complete_graph(n: int) -> Graph:
    """``K_n`` -- the degenerate overlay used when ``d ≥ n − 1``."""
    key = ("complete", n)
    if key not in _CACHE:
        everyone = tuple(range(n))
        adj = tuple(
            tuple(v for v in everyone if v != u) for u in range(n)
        )
        _CACHE[key] = Graph(n, adj, name=f"K_{n}")
    return _CACHE[key]


def _can_pair(ends: dict[int, int], edges: set[tuple[int, int]]) -> bool:
    """Whether two vertices of ``ends`` may still be joined.  A swap
    keeps ``u`` swapped for the rest of its row, so some pairs go
    unscanned; the scan decides when an attempt restarts, and every
    pinned overlay rests on it as written."""
    for u in ends:
        for v in ends:
            if u == v:
                break
            if u > v:
                u, v = v, u
            if (u, v) not in edges:
                return True
    return False


def _pairing(n: int, d: int, rng: random.Random) -> Optional[set[tuple[int, int]]]:
    """One Steger–Wormald attempt: shuffle the ``n·d`` stubs and pair
    them up, keep each pair that is neither a loop nor a repeat, and
    re-pair the stubs of the rest.  ``None`` when :func:`_can_pair`
    finds no new edge among the leftover stubs."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        leftover: dict[int, int] = {}  # vertex -> unpaired stubs, first seen first
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for u, v in zip(pairs, pairs):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftover[u] = leftover.get(u, 0) + 1
                leftover[v] = leftover.get(v, 0) + 1
        if leftover and not _can_pair(leftover, edges):
            return None
        stubs = [v for v, count in leftover.items() for _ in range(count)]
    return edges


def _random_regular_edges(n: int, d: int, seed: int) -> set[tuple[int, int]]:
    """The edge set of a random ``d``-regular simple graph on ``n``
    vertices, a function of ``seed`` alone: every overlay of every run
    rests on the order of its random calls, which
    ``tests/test_overlay.py`` pins."""
    rng = random.Random(seed)
    while True:
        edges = _pairing(n, d, rng)
        if edges is not None:
            return edges


def certified_ramanujan_graph(
    n: int,
    d: int,
    seed: int = 0,
    *,
    certify: Optional[bool] = None,
) -> Graph:
    """A ``d``-regular graph on ``n`` vertices with checked ``λ``.

    Degenerate cases: ``d ≥ n − 1`` returns the complete graph; if
    ``n·d`` is odd the degree is bumped by one (regular graphs need an
    even degree sum).

    ``certify=None`` (default) checks ``λ ≤ 2·sqrt(d − 1)·(1 + SLACK)``
    whenever an eigensolver is installed: the stdlib's up to 100
    vertices, so a bare install checks every such graph, numpy's up to
    600 and scipy's above (the ``[vec]`` extra); without one the check
    is skipped.  ``False`` skips it, and ``True`` raises ``ImportError``
    where the default skips.  A graph over the bound raises
    ``RuntimeError``: the check never swaps in another seed, so the
    graph is the same with or without it.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if d >= n - 1 or n <= 3:
        return complete_graph(n)
    if (n * d) % 2 == 1:
        d += 1
        if d >= n - 1:
            return complete_graph(n)
    do_certify = certify is not False
    key = ("ramanujan", n, d, seed, do_certify)
    if key in _CACHE:
        return _CACHE[key]
    edges = _random_regular_edges(n, d, seed)
    graph = Graph.from_edges(n, edges, name=f"G({n},{d})#s{seed}")
    if do_certify:
        try:
            certificate = spectral_certificate(graph, d)
        except ImportError:  # no eigensolver: the default skips the check
            if certify:
                raise
        else:
            if certificate["ratio"] > 1.0 + SLACK:
                raise RuntimeError(
                    f"G({n},{d}) on seed {seed} is not near-Ramanujan: "
                    f"λ={certificate['lambda']:.3f} > bound "
                    f"{certificate['bound'] * (1.0 + SLACK):.3f}"
                )
    _CACHE[key] = graph
    return graph
