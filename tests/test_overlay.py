"""The overlay generator and its spectral check (paper Section 3).

``certified_ramanujan_graph`` draws a random ``d``-regular graph with a
stdlib pairing generator and then checks its ``λ``; the check never
changes the graph.  These tests pin what the generator returns, compare
it with networkx's generator where networkx is installed, and confirm
that every overlay the repo builds passes the check on its own seed --
which is what lets a failed check raise instead of trying another seed.
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from benchmarks.perf.workloads import WORKLOADS, build_workload
from repro.api import build_recipe_processes
from repro.check.driver import sample_instance
from repro.families import REGISTRY
from repro.graphs import expander, ramanujan
from repro.graphs.expander import ramanujan_bound, second_eigenvalue
from repro.graphs.graph import Graph
from repro.graphs.ramanujan import certified_ramanujan_graph, clear_graph_cache, complete_graph
from tests.test_bench_harness import GOLDEN

#: The fuzzer's n (every ``REGISTRY`` record's ``n_range`` lies in
#: [16, 61)) and the perf ladder's larger sizes.
PIN_NS = (*range(16, 61), 64, 100, 128, 200, 480, 600)

#: ``(d, seed)`` -> sha256 over the adjacency of ``G(n, d)`` for every
#: ``n`` of :data:`PIN_NS` with ``2·d ≤ n`` (denser shapes restart the
#: pairing for seconds).  Written from networkx 3.6.1's
#: ``random_regular_graph``, the generator the overlays came from before.
PINNED = {
    (3, 0): "ed2eba7977ab87b65dcf57b34c38ae0b27296ec3436594190411f334cf5d3cca",
    (3, 1): "667245c2ff9cb1ceb59a8f6fbc6d807def2ed4c997e013d672a342d12d667402",
    (3, 20230619): "1a9f096c1b599d8b7baed1a6909fbb65dc3e1dd056a4def8b7ad7ba8390e93c0",
    (8, 0): "7255c8fcb24ba3a7ddb65716b639d58ff2ab07f63c1702d81d8b12bdc9dddb59",
    (8, 1): "f1fb1c2e123839ff02c93057184ac0736a1c9b9edc70c2721ad9b37c0ee63174",
    (8, 20230619): "5fd5f07249aa82c7cfeb02f4018158fcfb3f7b1ea3fd7f3de60617e1904fda3e",
    (16, 0): "bf8c10e22f783cfb22fd11c77183e33b846abc2fc6b077543c9eaf47e6be2b40",
    (16, 1): "ee004e95e04884248e9604eac22e294ac33af46714eeecb4f473b49367fb97eb",
    (16, 20230619): "1ba42acfb012fcbb4d396d882abca28f8f220f195c766ebc2afff9065dbe0f70",
    (32, 0): "84660f3e44c984d2506b957ccd6ea527883a28bf85c170c31b39775094b4e4d8",
    (32, 1): "a6c731c87d99041adede8dfae8c42c9c7c6cebb6cc7d06df4ef5d63ef0c6c0d0",
    (32, 20230619): "25f6b92ed19cf6f036060609d2a01bb1b731745da1c98d09a1e6e1832b76c4c3",
    (96, 0): "76bafaa587a8330c5e4b77ab5b70ffefb585b42e5801b5eaee745df18dca3964",
    (96, 1): "dd519ad01b14e48823fdd2e4f9ecc151266c7f037ac017e3cb2123a5d7f1b348",
    (96, 20230619): "1015a957e86782f3f165fcc983c2408fa6c1d8829dccb0448957b1ece98de43f",
}

#: The dense committee overlays the fuzzer builds (``5t`` little nodes at
#: the degree cap 32), written the same way.
PINNED_COMMITTEES = "4bcebc9ebdd01b11fe982286bb343673d9e09251be671888d9a2ab8cf835e7b3"


def _digest(shapes) -> str:
    h = hashlib.sha256()
    for n, d, seed in shapes:
        h.update(repr(certified_ramanujan_graph(n, d, seed, certify=False).adj).encode())
    return h.hexdigest()


class TestGeneratorPinned:
    @pytest.mark.parametrize("d, seed", list(PINNED))
    def test_adjacency_digest(self, d, seed):
        assert _digest((n, d, seed) for n in PIN_NS if 2 * d <= n) == PINNED[d, seed]

    def test_dense_committee_digest(self):
        assert _digest((n, 32, 0) for n in (35, 40, 45, 50, 55)) == PINNED_COMMITTEES

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in (*range(5, 130, 9), 257, 1024):
            for d in (3, 4, 5, 8, 16, 32, 96):
                if 2 * d > n or n * d % 2:
                    continue
                for seed in (0, 7):
                    theirs = nx.random_regular_graph(d, n, seed=seed)
                    ours = certified_ramanujan_graph(n, d, seed, certify=False)
                    assert ours.adj == tuple(
                        tuple(sorted(theirs.neighbors(v))) for v in range(n)
                    ), (n, d, seed)


class TestCheck:
    def test_check_never_changes_the_graph(self):
        checked = certified_ramanujan_graph(100, 8, 5, certify=True)
        unchecked = certified_ramanujan_graph(100, 8, 5, certify=False)
        assert checked is not unchecked and checked.adj == unchecked.adj

    def test_graph_over_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(expander, "second_eigenvalue", lambda graph: 99.0)
        with pytest.raises(RuntimeError, match=r"G\(70,6\) on seed 4 .*λ=99\.000 > bound"):
            certified_ramanujan_graph(70, 6, 4, certify=True)

    def test_missing_eigensolver(self, monkeypatch):
        def missing(graph):
            raise ModuleNotFoundError("No module named 'numpy'")

        monkeypatch.setattr(expander, "second_eigenvalue", missing)
        assert certified_ramanujan_graph(72, 6, 4).is_regular()  # default skips
        with pytest.raises(ImportError):
            certified_ramanujan_graph(74, 6, 4, certify=True)


# -- every overlay the repo builds passes the check on its own seed ------------


def _registry():
    """Every ``REGISTRY`` record over its ``n_range`` and ``t`` range, at
    ``overlay_seed=0`` (the fuzzer never varies it)."""
    for record in REGISTRY:
        for n in range(*record.n_range):
            for t in range(1, record.t_cap(n)):
                build_recipe_processes(
                    sample_instance(record.family, random.Random(0), 0, n=n, t=t)
                )


def _ladder(name):
    """One perf-ladder workload at full size.  Its shapes do not depend
    on the seed, and the builders make every overlay up front."""

    def build():
        for instance in build_workload(name, 0).instances:
            build_recipe_processes(instance.recipe)

    return build


SOURCES = {
    "registry": _registry,
    **{f"golden-{name}": run for name, (run, _, _) in GOLDEN.items()},
    **{f"ladder-{name}": _ladder(name) for name in WORKLOADS},
}


def _eigvalsh_lambda(graph) -> float:
    """``λ`` from numpy's dense ``eigvalsh``, the reference the stdlib
    solver is held to."""
    np = pytest.importorskip("numpy")
    matrix = np.zeros((graph.n, graph.n))
    for u, row in enumerate(graph.adj):
        matrix[u, list(row)] = 1.0
    return float(np.sort(np.abs(np.linalg.eigvalsh(matrix)))[-2])


@pytest.mark.parametrize("source", list(SOURCES))
def test_every_built_overlay_passes_on_its_own_seed(source):
    """Every overlay the repo builds is under the bound on its own seed,
    and up to the stdlib cutoff its ``λ`` is ``eigvalsh``'s."""
    pytest.importorskip("numpy")
    clear_graph_cache()
    SOURCES[source]()
    for key, graph in list(ramanujan._CACHE.items()):
        if key[0] == "ramanujan":
            n, d, seed = key[1:4]
            lam = second_eigenvalue(graph)
            assert lam <= ramanujan_bound(d) * (1 + ramanujan.SLACK), (n, d, seed, lam)
            if n <= expander._STDLIB_CUTOFF:
                assert abs(lam - _eigvalsh_lambda(graph)) <= 1e-9, (n, d, seed)


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete_bipartite(k):
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k)])


#: Shapes with repeated, zero and negative eigenvalues next to random
#: regular ones, up to the stdlib cutoff.
SHAPES = {
    **{f"G({n},{d})": (n, d) for n in (17, 40, 63, 80, 100) for d in (3, 4, 8, 16, 32)},
    **{f"cycle-{n}": _cycle(n) for n in (3, 4, 5, 31, 100)},
    **{f"complete-{n}": complete_graph(n) for n in (3, 4, 33, 100)},
    **{f"K({k},{k})": _complete_bipartite(k) for k in (2, 3, 17, 50)},
    "empty-9": Graph.from_edges(9, []),
    "two-triangles": Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
}


class TestStdlibSolver:
    @pytest.mark.parametrize("name", list(SHAPES))
    def test_matches_eigvalsh(self, name):
        graph = SHAPES[name]
        if isinstance(graph, tuple):
            n, d = graph
            graph = certified_ramanujan_graph(n, d, 3, certify=False)
        assert graph.n <= expander._STDLIB_CUTOFF
        assert abs(second_eigenvalue(graph) - _eigvalsh_lambda(graph)) <= 1e-9

    def test_a_bare_install_certifies_a_small_overlay(self, monkeypatch):
        """With numpy and scipy blocked, ``certify=True`` checks G(80, 16)
        instead of raising ``ImportError``, and a bound the graph misses
        still raises."""
        for name in ("numpy", "scipy"):
            monkeypatch.setitem(sys.modules, name, None)
        clear_graph_cache()
        graph = certified_ramanujan_graph(80, 16, certify=True)
        assert graph.is_regular() and expander.spectral_certificate(graph, 16)["ratio"] <= 1.0
        monkeypatch.setattr(ramanujan, "SLACK", -0.5)
        with pytest.raises(RuntimeError, match=r"G\(80,16\) on seed 1 is not near-Ramanujan"):
            certified_ramanujan_graph(80, 16, 1, certify=True)
        with pytest.raises(ImportError):
            second_eigenvalue(certified_ramanujan_graph(101, 16, certify=False))
