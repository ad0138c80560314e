"""Graph generation and representation substrate.

Provides the paper's test workloads:

* :func:`~repro.graphs.rmat.rmat_edges` — the R-MAT recursive generator
  with the Graph 500 parameters (a,b,c,d = 0.59, 0.19, 0.19, 0.05) used in
  every synthetic experiment;
* :func:`~repro.graphs.random_graphs.erdos_renyi_edges` /
  :func:`~repro.graphs.random_graphs.uniform_degree_edges` — uniform
  random baselines (the degree-regular regime assumed by Yoo et al.);
* :func:`~repro.graphs.webcrawl.webcrawl_edges` — a synthetic
  high-diameter web-crawl-like graph standing in for the proprietary
  ``uk-union`` dataset (diameter ~ 140, skewed degrees);
* :class:`~repro.graphs.graph.Graph` — CSR container with the paper's
  preprocessing: symmetrization, dedup, sorted adjacencies, random vertex
  relabeling for load balance (Section 4.4).
"""

from repro.graphs.csr import CSR, build_csr
from repro.graphs.graph import Graph
from repro.graphs.meshes import (
    banded_edges,
    grid2d_edges,
    grid3d_edges,
    mesh_graph,
    power_grid_edges,
)
from repro.graphs.ordering import bandwidth, edge_cut, rcm_ordering
from repro.graphs.permutation import apply_permutation, random_permutation
from repro.graphs.random_graphs import erdos_renyi_edges, uniform_degree_edges
from repro.graphs.rmat import GRAPH500_PARAMS, rmat_edges, rmat_graph
from repro.graphs.webcrawl import webcrawl_edges, webcrawl_graph

__all__ = [
    "CSR",
    "build_csr",
    "Graph",
    "banded_edges",
    "grid2d_edges",
    "grid3d_edges",
    "mesh_graph",
    "power_grid_edges",
    "bandwidth",
    "edge_cut",
    "rcm_ordering",
    "apply_permutation",
    "random_permutation",
    "erdos_renyi_edges",
    "uniform_degree_edges",
    "GRAPH500_PARAMS",
    "rmat_edges",
    "rmat_graph",
    "webcrawl_edges",
    "webcrawl_graph",
]
