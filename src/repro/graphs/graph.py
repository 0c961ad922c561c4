"""A minimal immutable undirected-graph type used for overlay networks.

Overlay graphs in the paper are simple graphs on the node names; the
algorithms only ever need neighbor lookups, so the representation is a
tuple of sorted neighbor tuples.  All constructions in this package are
deterministic functions of their parameters (including seeds), which is
what makes the *algorithms* deterministic end to end.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["Graph"]


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj", "name")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...], name: str = ""):
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for n={n}")
        self.n = n
        self.adj = adj
        self.name = name

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str = "") -> "Graph":
        """Build a graph from an edge list, dropping loops and duplicates."""
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        adj = tuple(tuple(sorted(s)) for s in neighbor_sets)
        return cls(n, adj, name)

    # Immutable, so a copy is the graph itself: the ``n`` processes of a
    # run share one overlay by identity, and the churn snapshots
    # (``copy.deepcopy(proc.__dict__)``) must not walk it per process.
    def __copy__(self) -> "Graph":
        return self

    def __deepcopy__(self, memo: dict) -> "Graph":
        return self

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    @property
    def max_degree(self) -> int:
        return max((len(row) for row in self.adj), default=0)

    @property
    def min_degree(self) -> int:
        return min((len(row) for row in self.adj), default=0)

    def is_regular(self) -> bool:
        return self.max_degree == self.min_degree

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        # Rows are sorted tuples; for the small degrees used here a
        # linear scan is faster than building sets.
        return v in row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "graph"
        return f"<Graph {label}: n={self.n}, m={self.edge_count}, dmax={self.max_degree}>"
