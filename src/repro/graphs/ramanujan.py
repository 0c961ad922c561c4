"""Constructions of (near-)Ramanujan overlay graphs (paper Section 3).

The paper assumes explicit Ramanujan graphs ``G(n, d)`` with constant
degree (e.g. ``d = 5^8``) exist for every ``n``.  Explicit families
(Lubotzky–Phillips–Sarnak) exist only for special ``(n, d)`` pairs, so
this reproduction substitutes:

* :func:`certified_ramanujan_graph` -- a seeded random ``d``-regular
  graph accepted only if its measured ``λ`` satisfies the (slackened)
  Ramanujan bound.  Random regular graphs are near-Ramanujan with high
  probability (Friedman's theorem), so a handful of retries suffices;
  the result is a deterministic function of ``(n, d, seed)``.
* :func:`margulis_graph` -- the fully explicit Margulis–Gabber–Galil
  8-regular expander on ``m × m`` torus vertices, for users who want a
  construction with zero probabilistic input (its spectral bound is
  weaker than Ramanujan; it is certified at build time too).

Constructed graphs are memoised: benchmark sweeps rebuild the same
overlays many times.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.graphs.expander import ramanujan_bound, second_eigenvalue
from repro.graphs.graph import Graph

__all__ = [
    "certified_ramanujan_graph",
    "clear_graph_cache",
    "complete_graph",
    "ell_expansion_size",
    "margulis_graph",
    "paper_delta",
    "paper_ell",
]

#: Default multiplicative slack admitted on the Ramanujan bound.
DEFAULT_SLACK = 0.12

#: How many seeds to try before giving up certification.
DEFAULT_TRIES = 16

_CACHE: dict[tuple, Graph] = {}


def clear_graph_cache() -> None:
    """Drop all memoised graphs (used by tests)."""
    _CACHE.clear()


def paper_ell(n: int, d: int) -> float:
    """``ℓ(n, d) = 4·n·d^{-1/8}`` (Section 3)."""
    return 4.0 * n * d ** (-1.0 / 8.0)


def paper_delta(d: int) -> int:
    """``δ(d) = ½(d^{7/8} − d^{5/8})`` rounded up, and at least 1.

    This is the local-probing survival threshold the paper derives from
    the degree; we apply the same formula to the *practical* degree.
    """
    raw = 0.5 * (d ** (7.0 / 8.0) - d ** (5.0 / 8.0))
    return max(1, math.ceil(raw))


def ell_expansion_size(n: int, d: int) -> int:
    """Integer version of ``ℓ(n, d)``, clamped to ``[1, n]``."""
    return max(1, min(n, math.ceil(paper_ell(n, d))))


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


def certified_ramanujan_graph(
    n: int,
    d: int,
    seed: int = 0,
    *,
    slack: float = DEFAULT_SLACK,
    tries: int = DEFAULT_TRIES,
    certify: Optional[bool] = None,
) -> Graph:
    """A ``d``-regular graph on ``n`` vertices with certified ``λ``.

    Degenerate cases: ``d ≥ n − 1`` returns the complete graph; if
    ``n·d`` is odd the degree is bumped by one (regular graphs need an
    even degree sum).

    ``certify=None`` (default) certifies when the eigensolve is cheap
    (``n ≤ 4096``); pass ``True``/``False`` to force.  Certification
    failures retry with the next seed; exhausting ``tries`` raises --
    in practice the first seed passes for all ``(n, d)`` used here.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if d >= n - 1 or n <= 3:
        return complete_graph(n)
    if (n * d) % 2 == 1:
        d += 1
        if d >= n - 1:
            return complete_graph(n)
    do_certify = certify if certify is not None else n <= 4096
    key = ("ramanujan", n, d, seed, slack if do_certify else None)
    if key in _CACHE:
        return _CACHE[key]

    import networkx as nx  # deferred: see expander.adjacency_matrix

    bound = ramanujan_bound(d) * (1.0 + slack)
    last_lambda = None
    for attempt in range(tries):
        candidate_seed = seed + attempt
        nx_graph = nx.random_regular_graph(d, n, seed=candidate_seed)
        adj = tuple(tuple(sorted(nx_graph.neighbors(v))) for v in range(n))
        graph = Graph(n, adj, name=f"G({n},{d})#s{candidate_seed}")
        if not do_certify:
            _CACHE[key] = graph
            return graph
        lam = second_eigenvalue(graph)
        last_lambda = lam
        if lam <= bound:
            _CACHE[key] = graph
            return graph
    raise RuntimeError(
        f"no seed in [{seed}, {seed + tries}) produced a near-Ramanujan "
        f"G({n},{d}); best λ={last_lambda:.3f} vs bound {bound:.3f}"
    )


def margulis_graph(m: int) -> Graph:
    """The Margulis–Gabber–Galil expander on ``n = m²`` vertices.

    Vertices are the torus ``Z_m × Z_m``; each vertex ``(x, y)`` is
    adjacent to ``(x ± 2y, y)``, ``(x ± (2y + 1), y)``, ``(x, y ± 2x)``
    and ``(x, y ± (2x + 1))`` (arithmetic mod ``m``).  The construction
    is fully explicit and deterministic with second eigenvalue bounded
    away from the degree (``λ ≤ 5·sqrt(2) < 8``); it is offered as the
    zero-randomness alternative overlay.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    key = ("margulis", m)
    if key in _CACHE:
        return _CACHE[key]
    n = m * m

    def vid(x: int, y: int) -> int:
        return (x % m) * m + (y % m)

    edges = []
    for x in range(m):
        for y in range(m):
            u = vid(x, y)
            for v in (
                vid(x + 2 * y, y),
                vid(x - 2 * y, y),
                vid(x + 2 * y + 1, y),
                vid(x - 2 * y - 1, y),
                vid(x, y + 2 * x),
                vid(x, y - 2 * x),
                vid(x, y + 2 * x + 1),
                vid(x, y - 2 * x - 1),
            ):
                edges.append((u, v))
    graph = Graph.from_edges(n, edges, name=f"Margulis({m})")
    _CACHE[key] = graph
    return graph
