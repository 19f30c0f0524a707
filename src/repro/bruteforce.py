"""Definitional brute-force oracle (tests only).

Everything here evaluates the paper's definitions *literally*, by exhaustive
possible-world enumeration (2^m worlds, m ≤ ~18 edges) or by a sequential
exact min-peel that mirrors Algorithm 1 line-by-line. The ℓ and g indicators
and the reference peel share no code with the Spark/driver production paths
(they use only the adjacency helpers and the DP kernel), so agreement is a
real cross-check, not a tautology. The w indicator uses the deterministic
decomposition ``repro.det.nucleus.nucleus_numbers``: a literal "some
k-nucleus subgraph of the world contains △" would enumerate the subgraphs
of every world.
"""
from itertools import combinations

import numpy as np

from repro.det.adjacency import adj_sets, canon, enumerate_4cliques
from repro.det.nucleus import nucleus_numbers
from repro.prob.support import EPS


def _support_in_world(world_edges: set, tri: tuple) -> int:
    adj = adj_sets(world_edges)
    a, b, c = tri
    if not all(x in adj for x in tri):
        return 0
    return len(adj[a] & adj[b] & adj[c])


def is_k_nucleus_def3(world_edges: set, k: int) -> bool:
    """Definition 3, literally: the graph is a deterministic k-(3,4)-nucleus
    when it is non-empty, every edge lies in a 4-clique (a union of
    4-cliques), every triangle lies in at least k 4-cliques, and every two
    triangles are s-connected through 4-cliques of the graph. Cliques and
    triangles are found by testing every vertex subset."""
    edges = {canon(u, v) for u, v in world_edges}
    if not edges:
        return False
    vertices = sorted({v for e in edges for v in e})

    def complete(vs) -> bool:
        return all((a, b) in edges for a, b in combinations(vs, 2))

    cliques = [q for q in combinations(vertices, 4) if complete(q)]
    tris = [t for t in combinations(vertices, 3) if complete(t)]
    if any(not any(set(e) <= set(q) for q in cliques) for e in edges):
        return False
    if any(sum(set(t) <= set(q) for q in cliques) < k for t in tris):
        return False
    # s-connectivity: search from one triangle over shared 4-cliques
    reached, todo = {tris[0]}, [tris[0]]
    while todo:
        t = todo.pop()
        for q in cliques:
            if set(t) <= set(q):
                for t2 in combinations(q, 3):
                    if t2 not in reached:
                        reached.add(t2)
                        todo.append(t2)
    return len(reached) == len(tris)


def tail_probability(edges, tri: tuple, k: int, mode: str) -> float:
    """Exact Pr(X_{G,△,μ} ≥ k) per Definition 4 by world enumeration.

    ``edges`` is a list of (u, v, p); ``mode`` ∈ {"l", "g", "w"}.
    """
    edges = [(canon(u, v)[0], canon(u, v)[1], p) for u, v, p in edges]
    tri = tuple(sorted(tri))
    tri_edges = {canon(a, b) for a, b in combinations(tri, 2)}
    m = len(edges)
    if m > 22:
        raise ValueError("brute force limited to 22 edges")
    total = 0.0
    for mask in range(1 << m):
        prob = 1.0
        world = set()
        for i, (u, v, p) in enumerate(edges):
            if mask >> i & 1:
                prob *= p
                world.add((u, v))
            else:
                prob *= 1.0 - p
        if prob == 0.0 or not tri_edges <= world:
            continue
        if mode == "l":
            ok = _support_in_world(world, tri) >= k
        elif mode == "g":
            ok = is_k_nucleus_def3(world, k)
        elif mode == "w":
            ok = nucleus_numbers(world).get(tri, -1) >= k
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if ok:
            total += prob
    return total


def local_nu_reference(edges, theta: float) -> dict[tuple, int]:
    """Sequential exact ℓ-NuDecomp (Algorithm 1 with running-max level).

    Independent of the production peelers: plain dicts, one triangle removed
    per step, full DP rescore of every neighbour after each removal.
    """
    import heapq

    from repro.prob.support import kappa_dp

    edges = [(canon(u, v)[0], canon(u, v)[1], p) for u, v, p in edges]
    p_edge = {canon(u, v): p for u, v, p in edges}
    adj = adj_sets(p_edge)
    cliques = enumerate_4cliques(adj)
    tris = set()
    tri_exts: dict[tuple, dict[int, float]] = {}
    for ci, cl in enumerate(cliques):
        for t in combinations(cl, 3):
            (z,) = set(cl) - set(t)
            ext = 1.0
            for x in t:
                ext *= p_edge[canon(x, z)]
            tri_exts.setdefault(tuple(t), {})[ci] = ext
            tris.add(tuple(t))
    # triangles in no 4-clique still get scored (κ is 0 or −1)
    for u in adj:
        for v, w in combinations(sorted(x for x in adj[u] if x > u), 2):
            if w in adj[v]:
                t = (u, v, w)
                tris.add(t)
                tri_exts.setdefault(t, {})

    def p_tri(t):
        return (
            p_edge[canon(t[0], t[1])]
            * p_edge[canon(t[0], t[2])]
            * p_edge[canon(t[1], t[2])]
        )

    def kap(t):
        if p_tri(t) < theta - EPS:
            return -1
        return kappa_dp(p_tri(t), np.array(list(tri_exts[t].values())), theta)

    clique_alive = [True] * len(cliques)
    kappa = {t: kap(t) for t in tris}
    heap = [(k, t) for t, k in kappa.items()]
    heapq.heapify(heap)
    removed: set = set()
    nu: dict = {}
    level = 0
    while heap:
        k, t = heapq.heappop(heap)
        if t in removed or k != kappa[t]:
            continue
        removed.add(t)
        if k < 0:
            nu[t] = -1
        else:
            level = max(level, k)
            nu[t] = level
        for ci in list(tri_exts[t]):
            if not clique_alive[ci]:
                continue
            clique_alive[ci] = False
            for t2 in combinations(cliques[ci], 3):
                t2 = tuple(t2)
                if t2 not in removed:
                    tri_exts[t2].pop(ci, None)
                    kappa[t2] = kap(t2)
                    heapq.heappush(heap, (kappa[t2], t2))
    return nu
