"""Probabilistic local (k,γ)-truss decomposition — baseline (Huang, Lu,
Lakshmanan, SIGMOD'16).

Edge support: for e = (u,v) with common neighbours w_1..w_c, the triangles
(u,v,w_i) exist independently given e (the side-edge pairs are disjoint), so
support is Poisson-binomial over q_i = p(u,w_i)·p(v,w_i) and

    κ_T(e) = max { k : p_e · Pr[ζ_e ≥ k] ≥ γ },   −1 if p_e < γ.

The (2,3) member of the nucleus family peels like the (3,4) one: edges are
the elements and triangles their support structures in
:func:`repro.nucleus.local.peel`. An edge's truss number is its removal
level. We use the paper's "contained in ≥ k triangles" convention
(footnote 1); Huang et al.'s (k−2) convention is the same numbers shifted
by 2.
"""
from collections import Counter

import numpy as np
import pandas as pd

from repro.det.adjacency import adj_sets, enumerate_triangles
from repro.graph.edges import edge_arrays
from repro.nucleus.local import NucleusSubgraph, peel, vertex_components
from repro.prob.support import kappa_dp


def gamma_truss_numbers(edges: pd.DataFrame, gamma: float) -> dict:
    """(k,γ)-truss number per canonical edge; ``edges`` has columns u, v, p.

    Edges with p_e < γ get −1 (they survive at no level).
    """
    lo, hi, _, truss = _truss_levels(edges, gamma)
    return dict(zip(zip(lo.tolist(), hi.tolist()), truss.tolist()))


def _truss_levels(edges: pd.DataFrame, gamma: float):
    """The canonical ends (lo, hi), p and (k,γ)-truss number of every edge,
    in input order."""
    u, v, p = edge_arrays(edges)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = list(zip(lo.tolist(), hi.tolist()))
    eid = {e: i for i, e in enumerate(keys)}
    # each triangle's edges (ab, ac, bc), and per edge the probability that
    # the triangle's other two edges exist
    tris = enumerate_triangles(adj_sets(keys))
    members = np.array(
        [(eid[a, b], eid[a, c], eid[b, c]) for a, b, c in tris], np.int64
    ).reshape(-1, 3)
    p_ab, p_ac, p_bc = p[members].T
    ext = np.stack([p_ac * p_bc, p_ab * p_bc, p_ab * p_ac], axis=1)
    truss = peel(
        p, members, ext, gamma, lambda p_e, batch, g: (kappa_dp(p_e, batch, g), Counter())
    ).nu
    return lo, hi, p, truss


def max_gamma_trusses(
    edges: pd.DataFrame, gamma: float
) -> tuple[int, list[NucleusSubgraph]]:
    """(k_Tmax, connected components of the maximum (k,γ)-truss subgraph)."""
    lo, hi, p, truss = _truss_levels(edges, gamma)
    k_max = int(truss.max(initial=-1))
    if k_max < 0:
        return 0, []
    keep = truss >= k_max
    return k_max, vertex_components(k_max, lo[keep], hi[keep], p[keep])
