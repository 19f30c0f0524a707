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

from repro.det.adjacency import adj_sets, canon, enumerate_triangles
from repro.graph.connectivity import components_of
from repro.graph.edges import edge_arrays
from repro.nucleus.local import NucleusSubgraph, peel
from repro.prob.support import kappa_dp


def gamma_truss_numbers(edges: pd.DataFrame, gamma: float) -> dict:
    """(k,γ)-truss number per canonical edge; ``edges`` has columns u, v, p.

    Edges with p_e < γ get −1 (they survive at no level).
    """
    u, v, p = edge_arrays(edges)
    keys = list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
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
    return dict(zip(keys, truss.tolist()))


def max_gamma_trusses(
    edges: pd.DataFrame, gamma: float
) -> tuple[int, list[NucleusSubgraph]]:
    """(k_Tmax, connected components of the maximum (k,γ)-truss subgraph)."""
    truss = gamma_truss_numbers(edges, gamma)
    if not truss:
        return 0, []
    k_max = max(truss.values())
    if k_max < 0:
        return 0, []
    keep = {e for e, k in truss.items() if k >= k_max}
    comps = components_of(list(keep))
    p_edge = {
        canon(u, v): p for u, v, p in edges[["u", "v", "p"]].itertuples(index=False)
    }
    out = []
    for comp in comps:
        e = {e_: p_edge[e_] for e_ in keep if e_[0] in comp and e_[1] in comp}
        out.append(NucleusSubgraph(k_max, set(comp), e, set()))
    return k_max, out
