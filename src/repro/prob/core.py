"""Probabilistic (k,η)-core decomposition — baseline (Bonchi et al., KDD'14).

η-degree of a vertex v: max k such that Pr[at least k of v's incident edges
exist] ≥ η. Incident edges are independent Bernoullis, so the tail is the
same Poisson-binomial machinery as the nucleus support (`repro.prob.support`).
The (1,2) member of the nucleus family peels like the (3,4) one: vertices
are the elements and edges their support structures in
:func:`repro.nucleus.local.peel`, with p_self = 1 and each edge's q = p at
both ends. A vertex's (k,η)-core number is its removal level.
"""
from collections import Counter

import numpy as np
import pandas as pd

from repro.graph.edges import edge_arrays
from repro.nucleus.local import NucleusSubgraph, peel, vertex_components
from repro.prob.support import kappa_rows, pb_tail


def eta_core_numbers(edges: pd.DataFrame, eta: float) -> dict:
    """(k,η)-core number per vertex; ``edges`` has columns u, v, p."""
    vertices, core = _core_levels(*edge_arrays(edges), eta)
    return dict(zip(vertices.tolist(), core.tolist()))


def _core_levels(u, v, p, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted vertices of the edges (u, v, p) and their (k,η)-core
    numbers."""
    vertices, ends = np.unique(np.stack([u, v], axis=1), return_inverse=True)

    def eta_degrees(p_v, batch, eta):
        """max k with Pr[≥ k incident edges] ≥ η, 0 when no edge qualifies"""
        return np.maximum(kappa_rows(p_v, batch, eta, pb_tail), 0), Counter()

    core = peel(
        np.ones(len(vertices)), ends.reshape(-1, 2), np.stack([p, p], axis=1), eta, eta_degrees
    ).nu
    return vertices, core


def max_eta_cores(edges: pd.DataFrame, eta: float) -> tuple[int, list[NucleusSubgraph]]:
    """(k_Cmax, connected components of the maximum (k,η)-core subgraph)."""
    u, v, p = edge_arrays(edges)
    if not len(u):
        return 0, []
    vertices, core = _core_levels(u, v, p, eta)
    k_max = int(core.max())
    top = vertices[core >= k_max]
    keep = np.isin(u, top) & np.isin(v, top)
    return k_max, vertex_components(k_max, u[keep], v[keep], p[keep])
