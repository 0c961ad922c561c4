"""Unit tests for the Graph type and the expander analysis toolkit.

The spectral tests use graphs of at most 100 vertices, which
``second_eigenvalue`` solves on the stdlib, so they run on a bare
install too.
"""

import math

import pytest

from repro.graphs.expander import (
    edges_between,
    mixing_lemma_gap,
    ramanujan_bound,
    second_eigenvalue,
    spectral_certificate,
)
from repro.graphs.families import random_out_graph
from repro.graphs.graph import Graph
from repro.graphs.ramanujan import (
    certified_ramanujan_graph,
    clear_graph_cache,
    complete_graph,
    paper_delta,
)


class TestGraphType:
    def test_from_edges_symmetrises_and_dedups(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2), (1, 1)])
        assert graph.neighbors(1) == (0, 2)
        assert graph.edge_count == 2

    def test_loops_dropped(self):
        graph = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert graph.degree(0) == 1

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_has_edge(self):
        graph = Graph.from_edges(3, [(0, 1)])
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)

    def test_regularity_flags(self):
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cycle.is_regular()
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not path.is_regular()

    def test_adjacency_row_count_checked(self):
        with pytest.raises(ValueError):
            Graph(3, ((1,), (0,)))


class TestSpectra:
    def test_complete_graph_lambda_is_one(self):
        for n in (2, 10):
            assert second_eigenvalue(complete_graph(n)) == pytest.approx(1.0, abs=1e-8)

    def test_cycle_spectrum(self):
        # C_n has eigenvalues 2cos(2πk/n); for n=6 the second largest
        # magnitude is 2cos(π/3)*... = 1 and |λ_n| = 2 (bipartite).
        n = 6
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        lam = second_eigenvalue(cycle)
        assert lam == pytest.approx(2.0, abs=1e-8)  # -2 from bipartiteness

    def test_ramanujan_bound_formula(self):
        assert ramanujan_bound(5) == pytest.approx(4.0)
        assert ramanujan_bound(1) == 0.0

    def test_ramanujan_bound_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            ramanujan_bound(0)

    def test_certificate_fields(self):
        graph = certified_ramanujan_graph(64, 8, seed=0)
        cert = spectral_certificate(graph, 8)
        assert cert["lambda"] <= cert["bound"] * (1 + 0.12) + 1e-9
        assert 0 < cert["ratio"] < 1.2

    def test_bipartite_double_cover_not_ramanujan(self):
        # K_{4,4} has eigenvalues ±4 and 0s: λ = 4 > 2·sqrt(3).
        edges = [(i, 4 + j) for i in range(4) for j in range(4)]
        graph = Graph.from_edges(8, edges)
        assert spectral_certificate(graph, 4)["ratio"] > 1


class TestSetCombinatorics:
    def setup_method(self):
        self.graph = certified_ramanujan_graph(60, 6, seed=1)

    def test_edges_between_counts(self):
        first, second = set(range(0, 30)), set(range(30, 60))
        count = edges_between(self.graph, first, second)
        total = self.graph.edge_count
        inside = sum(
            (u in first) == (v in first) for u in range(60) for v in self.graph.adj[u] if u < v
        )
        assert count == total - inside

    def test_edges_between_requires_disjoint(self):
        with pytest.raises(ValueError):
            edges_between(self.graph, {1, 2}, {2, 3})

    def test_mixing_lemma_holds(self):
        # The Expander Mixing Lemma inequality must hold for any pair of
        # disjoint sets (this exercises the eigenvalue computation).
        first, second = set(range(0, 20)), set(range(20, 45))
        assert mixing_lemma_gap(self.graph, first, second) >= -1e-6


class TestConstructions:
    def test_certified_graph_is_regular(self):
        graph = certified_ramanujan_graph(100, 8, seed=0)
        assert graph.is_regular()
        assert graph.max_degree == 8

    def test_certified_graph_deterministic(self):
        first = certified_ramanujan_graph(100, 8, seed=0)
        second = certified_ramanujan_graph(100, 8, seed=0)
        assert first is second  # memoised

    def test_small_n_degenerates_to_complete(self):
        graph = certified_ramanujan_graph(5, 32, seed=0)
        assert graph.edge_count == 10

    def test_odd_parity_degree_bumped(self):
        graph = certified_ramanujan_graph(15, 7, seed=0)  # 15*7 odd
        assert graph.max_degree == 8

    def test_clear_reaches_every_memoised_family(self):
        # The Lemma 5 inquiry and MCC phase graphs are memoised too; a
        # clear that missed them would hide their builds from a cold probe.
        first = random_out_graph(40, 4, seed=3)
        assert random_out_graph(40, 4, seed=3) is first
        clear_graph_cache()
        assert random_out_graph(40, 4, seed=3) is not first


class TestPaperFormulas:
    def test_paper_delta_positive_and_monotone(self):
        values = [paper_delta(d) for d in (4, 8, 16, 32, 64)]
        assert all(v >= 1 for v in values)
        assert values == sorted(values)

    def test_paper_delta_exact_for_paper_degree(self):
        d = 5**8
        expected = 0.5 * (d ** (7 / 8) - d ** (5 / 8))
        assert paper_delta(d) == math.ceil(expected)
