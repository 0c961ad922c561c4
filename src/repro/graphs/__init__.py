"""Overlay-graph substrate of paper Section 3: one seeded stdlib
generator for the (near-)Ramanujan overlays, a spectral check that never
changes the graph it checks, and the combinatorics (expansion,
compactness, dense neighborhoods) the proofs use.
"""

from repro.graphs.compactness import (
    compactness_profile,
    dense_neighborhood,
    generalized_neighborhood,
    is_survival_subset,
    survival_subset,
)
from repro.graphs.expander import (
    edges_between,
    mixing_lemma_gap,
    ramanujan_bound,
    second_eigenvalue,
    spectral_certificate,
)
from repro.graphs.families import (
    mcc_phase_degree,
    mcc_phase_graph,
    random_out_graph,
    scv_inquiry_degree,
    scv_inquiry_graph,
    spread_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.ramanujan import (
    certified_ramanujan_graph,
    clear_graph_cache,
    complete_graph,
    paper_delta,
)

__all__ = [
    "Graph",
    "certified_ramanujan_graph",
    "clear_graph_cache",
    "compactness_profile",
    "complete_graph",
    "dense_neighborhood",
    "edges_between",
    "generalized_neighborhood",
    "is_survival_subset",
    "mcc_phase_degree",
    "mcc_phase_graph",
    "mixing_lemma_gap",
    "paper_delta",
    "ramanujan_bound",
    "random_out_graph",
    "scv_inquiry_degree",
    "scv_inquiry_graph",
    "second_eigenvalue",
    "spectral_certificate",
    "spread_graph",
    "survival_subset",
]
