"""Small-graph adjacency utilities (pure python).

These run on FG/WG candidates (once per candidate, to index its triangles
and 4-cliques), on single sampled worlds in the per-world reference
`repro.det.nucleus`, and on extracted nuclei, where graphs have at most a
few thousand edges — a dict-of-sets representation beats any dataframe at
that size.
Vertex ids are arbitrary hashable, edges are canonical (u, v) with u < v,
triangles and 4-cliques are sorted vertex tuples. (The collected frames of
`repro.nucleus.local` number triangles by tid instead.)
"""
from collections import defaultdict
from itertools import combinations
from typing import Hashable, Iterable

Edge = tuple[Hashable, Hashable]


def canon(u, v) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def adj_sets(edges: Iterable[Edge]) -> dict:
    """Adjacency sets {v: set(neighbours)} from canonical edges."""
    adj: dict = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def enumerate_triangles(adj: dict) -> list[tuple]:
    """All triangles as sorted vertex triples (each exactly once)."""
    out = []
    for u in adj:
        higher = {v for v in adj[u] if v > u}
        for v in higher:
            for w in higher & adj[v]:
                if w > v:
                    out.append((u, v, w))
    return out


def cliques_of(adj: dict, tris: list[tuple]) -> list[tuple]:
    """The 4-cliques extending the given sorted triangles by a higher common
    neighbour; over all of a graph's triangles, each 4-clique exactly once."""
    return [(a, b, c, d) for a, b, c in tris for d in adj[a] & adj[b] & adj[c] if d > c]


def enumerate_4cliques(adj: dict) -> list[tuple]:
    """All 4-cliques as sorted vertex 4-tuples (each exactly once)."""
    return cliques_of(adj, enumerate_triangles(adj))


def clique_triangles(clique: tuple) -> list[tuple]:
    """The four (sorted) triangles of a 4-clique."""
    return [tuple(t) for t in combinations(clique, 3)]
