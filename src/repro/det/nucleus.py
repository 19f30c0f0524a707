"""Deterministic (3,4)-nucleus decomposition (Sarıyüce et al.) and the
k-nucleus membership predicate, one world at a time: the scalar reference
for the FG/WG Monte-Carlo indicators, which `repro.nucleus.global_`
evaluates for all sampled worlds of a candidate at once.

``nucleus_numbers`` peels triangles by 4-clique support with a running-max
level: ν(△) = max k such that △ belongs to a k-(3,4)-nucleus. Connectivity
only partitions a fixed support level into maximal nuclei, it never lowers
support, so ν(△) ≥ k ⟺ △ lies in some deterministic k-nucleus — exactly the
weakly-global indicator 1_w (Definition 4).

``is_k_nucleus`` checks the *whole graph* against Definition 3 (union of
4-cliques, every triangle with support ≥ k, all triangles s-connected) — the
global indicator 1_g.
"""
import heapq

from repro.det.adjacency import (
    adj_sets,
    canon,
    clique_triangles,
    cliques_of,
    enumerate_triangles,
)
from repro.graph.connectivity import union_find


def _structures(edges):
    """(cliques, tri_cliques): the 4-cliques and, for *every* triangle, the
    set of indices of the cliques containing it (empty for a triangle in no
    4-clique). Triangles are enumerated once and extended to the cliques."""
    adj = adj_sets(edges)
    tris = enumerate_triangles(adj)
    cliques = cliques_of(adj, tris)
    tri_cliques: dict = {t: set() for t in tris}
    for idx, cl in enumerate(cliques):
        for t in clique_triangles(cl):
            tri_cliques[t].add(idx)
    return cliques, tri_cliques


def nucleus_numbers(edges) -> dict:
    """ν(△) per triangle (sorted vertex triple) for canonical edges.

    Triangles contained in no 4-clique get ν = 0 (they are in no union-of-
    4-cliques subgraph, hence in no nucleus of any k ≥ 1).
    """
    edges = [canon(u, v) for u, v in edges]
    cliques, tri_cliques = _structures(edges)
    support = {t: len(cs) for t, cs in tri_cliques.items()}
    clique_alive = [True] * len(cliques)
    heap = [(s, t) for t, s in support.items()]
    heapq.heapify(heap)
    removed: set = set()
    nu: dict = {}
    level = 0
    while heap:
        s, t = heapq.heappop(heap)
        if t in removed or s != support[t]:
            continue
        level = max(level, s)
        nu[t] = level
        removed.add(t)
        for ci in list(tri_cliques[t]):
            if not clique_alive[ci]:
                continue
            clique_alive[ci] = False
            for t2 in clique_triangles(cliques[ci]):
                if t2 != t and t2 not in removed:
                    support[t2] -= 1
                    tri_cliques[t2].discard(ci)
                    heapq.heappush(heap, (support[t2], t2))
    return nu


def is_k_nucleus(edges, k: int) -> bool:
    """Definition 3 check for the whole graph: is G a deterministic
    k-(3,4)-nucleus? (union of 4-cliques, every triangle of G — also one
    made of edges of different cliques — with support ≥ k, all triangles
    s-connected). Empty graphs are not nuclei."""
    edges = [canon(u, v) for u, v in edges]
    if not edges:
        return False
    cliques, tri_cliques = _structures(edges)
    if not cliques:
        return False
    covered = {canon(a, b) for cl in cliques for a in cl for b in cl if a < b}
    if any(e not in covered for e in edges):
        return False  # some edge is in no 4-clique
    if any(len(cs) < k for cs in tri_cliques.values()):
        return False
    # a triangle in no clique is its own component, so it fails here too
    labels = union_find([[t] for t in tri_cliques] + [clique_triangles(cl) for cl in cliques])
    return len(set(labels.values())) == 1
