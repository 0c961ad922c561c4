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
from operator import mul
from typing import Iterable, Optional

from repro.graphs.graph import Graph

__all__ = [
    "edges_between",
    "mixing_lemma_gap",
    "ramanujan_bound",
    "second_eigenvalue",
    "spectral_certificate",
]

#: Up to this vertex count ``λ`` is computed on the stdlib, exactly
#: (``_symmetric_eigenvalues``): about 50 ms at n = 80, less than
#: ``import numpy`` costs a process.
_STDLIB_CUTOFF = 100

#: QL sweeps allowed per eigenvalue; two or three are typical.
_QL_ITERATIONS = 60

#: Up to this vertex count a dense eigensolve is faster and exact.
_DENSE_CUTOFF = 600


def ramanujan_bound(d: int) -> float:
    """The Ramanujan spectral bound ``2·sqrt(d − 1)``."""
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    return 2.0 * math.sqrt(max(d - 1, 0))


def second_eigenvalue(graph: Graph) -> float:
    """``λ = max(|λ₂|, |λₙ|)`` of the adjacency matrix.

    For a connected non-bipartite ``d``-regular graph this is the second
    largest eigenvalue magnitude.  Complete graphs return 1.0, ``K2``
    included; a single vertex returns 0.0.  The
    solver follows from the vertex count alone: the stdlib up to
    ``_STDLIB_CUTOFF`` (100) vertices, numpy's dense ``eigvalsh`` up to
    ``_DENSE_CUTOFF`` (600), scipy's sparse ``eigsh`` above that.  The
    first two are exact; numpy and scipy (the ``[vec]`` extra) are
    imported here, so a bare install certifies every overlay up to 100
    vertices and the rest of the package runs on the stdlib.
    """
    n = graph.n
    if n <= 1:
        return 0.0
    if n <= _STDLIB_CUTOFF:
        matrix = [[0.0] * n for _ in range(n)]
        for u, row in enumerate(graph.adj):
            for v in row:
                matrix[u][v] = 1.0
        values = _symmetric_eigenvalues(matrix)
    elif n <= _DENSE_CUTOFF:
        import numpy as np

        matrix = np.zeros((n, n))
        for u, row in enumerate(graph.adj):
            matrix[u, list(row)] = 1.0
        values = np.linalg.eigvalsh(matrix).tolist()
    else:
        # Sparse path: the two largest-magnitude eigenvalues are the
        # trivial one (== d for regular graphs) and λ.
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import eigsh

        rows = [u for u in range(n) for _ in graph.adj[u]]
        cols = [v for row in graph.adj for v in row]
        matrix = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        values = eigsh(matrix, k=2, which="LM", return_eigenvectors=False, tol=1e-8).tolist()
    return float(sorted(map(abs, values))[-2])


def _symmetric_eigenvalues(matrix: list[list[float]]) -> list[float]:
    """Every eigenvalue of a dense symmetric ``matrix`` (overwritten):
    Householder reduction to tridiagonal form, then implicit-shift QL
    (Numerical Recipes' ``tred2`` / ``tqli``, without eigenvectors)."""
    n = len(matrix)
    off = [0.0] * n  # off[k] couples rows k - 1 and k, for k ≥ 2
    for k in range(n - 1, 1, -1):
        # Reflect row k's first k entries onto its (k - 1)-th: P = I - v·vᵀ/h.
        v = matrix[k][:k]
        norm = math.sqrt(sum(map(mul, v, v)))
        if norm == 0.0:
            continue
        alpha = -norm if v[-1] >= 0.0 else norm
        h = norm * norm - v[-1] * alpha
        v[-1] -= alpha
        off[k] = alpha
        # A ← P·A·P on the leading k×k block, as A − v·qᵀ − q·vᵀ.
        p = [sum(map(mul, matrix[j], v)) / h for j in range(k)]
        half = sum(map(mul, v, p)) / (h + h)
        q = [pj - half * vj for pj, vj in zip(p, v)]
        for j in range(k):
            vj, qj = v[j], q[j]
            row = matrix[j]
            row[:k] = [x - vj * qm - qj * vm for x, qm, vm in zip(row, q, v)]
    diag = [matrix[i][i] for i in range(n)]
    e = [matrix[1][0], *off[2:], 0.0]  # e[i] couples diag[i] and diag[i + 1]
    for low in range(n):
        for _ in range(_QL_ITERATIONS):
            m = low
            while m < n - 1:
                scale = abs(diag[m]) + abs(diag[m + 1])
                if abs(e[m]) + scale == scale:
                    break
                m += 1
            if m == low:
                break
            g = (diag[low + 1] - diag[low]) / (2.0 * e[low])
            r = math.hypot(g, 1.0)
            g = diag[m] - diag[low] + e[low] / (g + math.copysign(r, g))
            s = c = 1.0
            shift = 0.0
            for i in range(m - 1, low - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:  # deflate early and restart the sweep
                    diag[i + 1] -= shift
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = diag[i + 1] - shift
                r = (diag[i] - g) * s + 2.0 * c * b
                shift = s * r
                diag[i + 1] = g + shift
                g = c * r - b
            else:
                diag[low] -= shift
                e[low] = g
                e[m] = 0.0
        else:
            raise ArithmeticError(f"QL did not converge on eigenvalue {low} of {n}")
    return diag


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
