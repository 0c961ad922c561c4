"""Spectral and combinatorial expander analysis (paper Section 3).

The paper's proofs rest on a single spectral quantity of a ``d``-regular
graph: ``λ = max(|λ₂|, |λₙ|)``.  A graph is Ramanujan when
``λ ≤ 2·sqrt(d − 1)``.  Everything else (Theorems 1-4) is derived from
``λ`` through the Expander Mixing Lemma, so this module provides:

* :func:`second_eigenvalue` -- compute ``λ``;
* :func:`spectral_certificate` -- ``λ`` against the Ramanujan bound,
  which :func:`repro.graphs.certified_ramanujan_graph` checks;
* :func:`edges_between` and :func:`mixing_lemma_gap` -- direct checks of
  the Expander Mixing Lemma used by the property tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.graphs.graph import Graph

__all__ = [
    "edges_between",
    "mixing_lemma_gap",
    "ramanujan_bound",
    "second_eigenvalue",
    "spectral_certificate",
]

#: Below this vertex count a dense eigensolve is faster and exact.
_DENSE_CUTOFF = 600


def ramanujan_bound(d: int) -> float:
    """The Ramanujan spectral bound ``2·sqrt(d − 1)``."""
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    return 2.0 * math.sqrt(max(d - 1, 0))


def second_eigenvalue(graph: Graph) -> float:
    """``λ = max(|λ₂|, |λₙ|)`` of the adjacency matrix.

    For a connected non-bipartite ``d``-regular graph this is the second
    largest eigenvalue magnitude.  Complete graphs return 1.0.  Needs
    numpy, and scipy above the dense cutoff (the ``[vec]`` extra); they
    are imported here, so the rest of the package runs on the stdlib.
    """
    n = graph.n
    if n <= 2:
        return 0.0
    import numpy as np

    if n <= _DENSE_CUTOFF:
        matrix = np.zeros((n, n))
        for u, row in enumerate(graph.adj):
            matrix[u, list(row)] = 1.0
        magnitudes = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
        return float(magnitudes[1])
    # Sparse path: the two largest-magnitude eigenvalues are the trivial
    # one (== d for regular graphs) and λ.
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    rows = [u for u in range(n) for _ in graph.adj[u]]
    cols = [v for row in graph.adj for v in row]
    matrix = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    values = eigsh(matrix, k=2, which="LM", return_eigenvectors=False, tol=1e-8)
    magnitudes = np.sort(np.abs(values))[::-1]
    return float(magnitudes[1])


def spectral_certificate(graph: Graph, d: Optional[int] = None) -> dict:
    """A report of the spectral quality of ``graph``.

    Returns ``{"lambda": λ, "bound": 2*sqrt(d-1), "ratio": λ/bound}``;
    ``ratio <= 1`` means genuinely Ramanujan.
    """
    degree = d if d is not None else graph.max_degree
    lam = second_eigenvalue(graph)
    bound = ramanujan_bound(degree)
    ratio = lam / bound if bound else (math.inf if lam > 0 else 0.0)
    return {"lambda": lam, "bound": bound, "ratio": ratio}


def edges_between(graph: Graph, first: Iterable[int], second: Iterable[int]) -> int:
    """``e(A, B)``: edges connecting disjoint vertex sets ``A`` and ``B``."""
    set_a = set(first)
    set_b = set(second)
    if set_a & set_b:
        raise ValueError("edges_between requires disjoint sets")
    count = 0
    for u in set_a:
        for v in graph.adj[u]:
            if v in set_b:
                count += 1
    return count


def mixing_lemma_gap(graph: Graph, first: Iterable[int], second: Iterable[int]) -> float:
    """Expander Mixing Lemma slack for sets ``A``, ``B``.

    Returns ``λ·sqrt(|A||B|) − |e(A,B) − d|A||B|/n|``; non-negative
    values mean the lemma's inequality holds (it always does -- this is
    used as a sanity property test of the eigenvalue computation).
    """
    set_a = set(first)
    set_b = set(second)
    d = graph.max_degree
    lam = second_eigenvalue(graph)
    expected = d * len(set_a) * len(set_b) / graph.n
    actual = edges_between(graph, set_a, set_b)
    return lam * math.sqrt(len(set_a) * len(set_b)) - abs(actual - expected)
