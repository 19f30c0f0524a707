"""Definitional brute-force oracle (tests only).

Everything here evaluates the paper's definitions *literally*, by exhaustive
possible-world enumeration (2^m worlds, m ≤ ~18 edges) or by a sequential
exact min-peel that mirrors Algorithm 1 line-by-line. The ℓ, g and w
indicators and the reference peel share no code with the Spark/driver
production paths (they use only the adjacency helpers, and their
Poisson-binomial tails come from the generating polynomial, not from the
DP kernel), so agreement is a real cross-check, not a tautology. The w indicator is
literal too: some vertex subset of the world that contains △ induces a
subgraph that passes Definition 3 (:func:`in_some_k_nucleus`).

The core and truss baselines have two oracles each: the deterministic
k-core and k-truss heap peels (the p = 1, η = γ = 1 limit), and a per-k
deletion fixpoint written from the (k,η)-core and (k,γ)-truss definitions.
"""
import heapq
from itertools import combinations

import numpy as np

from repro.det.adjacency import adj_sets, canon, enumerate_4cliques
from repro.prob.support import EPS


def _tail(qs) -> np.ndarray:
    """Pr[ζ ≥ k], k = 0..c, of ζ = Σ Bern(q_i), from the coefficients of
    the generating polynomial ∏(1 − q_i + q_i·x)."""
    poly = np.ones(1)
    for q in qs:
        poly = np.convolve(poly, (1.0 - q, q))
    tail = np.cumsum(poly[::-1])[::-1]
    tail[0] = 1.0
    return tail


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


def in_some_k_nucleus(world_edges: set, tri: tuple, k: int) -> bool:
    """The w indicator, literally: some vertex subset of the world that
    contains △ induces a deterministic k-nucleus (Definition 3). Subsets are
    tried smallest first; an induced subgraph has at most the world's
    4-cliques, so a △ with fewer than k of them fails at once."""
    if _support_in_world(world_edges, tri) < max(k, 1):
        return False
    rest = sorted({v for e in world_edges for v in e} - set(tri))
    for r in range(1, len(rest) + 1):
        for extra in combinations(rest, r):
            vs = set(tri) | set(extra)
            if is_k_nucleus_def3({e for e in world_edges if set(e) <= vs}, k):
                return True
    return False


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
            ok = in_some_k_nucleus(world, tri, k)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if ok:
            total += prob
    return total


def local_nu_reference(edges, theta: float) -> dict[tuple, int]:
    """Sequential exact ℓ-NuDecomp (Algorithm 1 with running-max level).

    Independent of the production peelers: plain dicts, one triangle removed
    per step, full rescore of every neighbour after each removal.
    """
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
        """κ(△) = max k with Pr(△)·Pr[ζ ≥ k] ≥ θ, −1 if even k = 0 fails"""
        tail = p_tri(t) * _tail(tri_exts[t].values())
        return max((k for k in range(len(tail)) if tail[k] >= theta - EPS), default=-1)

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


# ---------------------------------------------------------------------------
# core and truss oracles
# ---------------------------------------------------------------------------


def core_numbers(edges) -> dict:
    """Deterministic k-core number per vertex (k-(1,2)-nucleus) of an
    iterable of canonical edges: Batagelj–Zaveršnik, repeatedly remove a
    minimum-degree vertex; its core number is the running maximum of the
    degree at removal time."""
    adj = {v: set(n) for v, n in adj_sets(edges).items()}
    heap = [(len(n), v) for v, n in adj.items()]
    heapq.heapify(heap)
    removed: set = set()
    core: dict = {}
    level = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != len(adj[v]):
            continue  # stale heap entry
        level = max(level, d)
        core[v] = level
        removed.add(v)
        for w in adj[v]:
            adj[w].discard(v)
            heapq.heappush(heap, (len(adj[w]), w))
        adj[v] = set()
    return core


def truss_numbers(edges) -> dict:
    """Deterministic k-truss number per canonical edge (k-(2,3)-nucleus):
    max k such that the edge lies in a maximal subgraph where every edge is
    contained in ≥ k triangles (the paper's footnote 1 convention)."""
    edges = [canon(u, v) for u, v in edges]
    adj = {v: set(n) for v, n in adj_sets(edges).items()}
    support = {e: len(adj[e[0]] & adj[e[1]]) for e in edges}
    heap = [(s, e) for e, s in support.items()]
    heapq.heapify(heap)
    removed: set = set()
    truss: dict = {}
    level = 0
    while heap:
        s, e = heapq.heappop(heap)
        if e in removed or s != support[e]:
            continue
        level = max(level, s)
        truss[e] = level
        removed.add(e)
        u, v = e
        for w in adj[u] & adj[v]:  # triangles through e die
            for other in (canon(u, w), canon(v, w)):
                if other not in removed:
                    support[other] -= 1
                    heapq.heappush(heap, (support[other], other))
        adj[u].discard(v)
        adj[v].discard(u)
    return truss


def _deletion_fixpoint(elements, holds) -> dict:
    """For k = 0, 1, ...: start from all ``elements`` and repeatedly delete
    every element x with ``holds(x, survivors, k)`` false. An element's
    number is the largest k at which it survives, −1 if it fails at k = 0."""
    number = dict.fromkeys(elements, -1)
    k = 0
    while True:
        alive = set(elements)
        while drop := {x for x in alive if not holds(x, alive, k)}:
            alive -= drop
        if not alive:
            return number
        for x in alive:
            number[x] = k
        k += 1


def eta_core_fixpoint(edges, eta: float) -> dict:
    """(k,η)-core number per vertex from the definition: the (k,η)-core is
    the largest vertex set in which every vertex has Pr[≥ k of its edges
    inside the set exist] ≥ η. ``edges`` is a list of (u, v, p)."""
    p_edge = {canon(u, v): p for u, v, p in edges}
    adj = adj_sets(p_edge)

    def holds(v, alive, k):
        qs = [p_edge[canon(v, w)] for w in adj[v] if w in alive]
        return k <= len(qs) and _tail(qs)[k] >= eta - EPS

    return _deletion_fixpoint(list(adj), holds)


def gamma_truss_fixpoint(edges, gamma: float) -> dict:
    """(k,γ)-truss number per canonical edge from the definition: the
    (k,γ)-truss is the largest edge set in which every edge e has
    p_e · Pr[≥ k triangles of the set through e exist | e] ≥ γ; −1 for an
    edge with p_e < γ. ``edges`` is a list of (u, v, p)."""
    p_edge = {canon(u, v): p for u, v, p in edges}
    adj = adj_sets(p_edge)

    def holds(e, alive, k):
        u, v = e
        qs = [
            p_edge[canon(u, w)] * p_edge[canon(v, w)]
            for w in adj[u] & adj[v]
            if canon(u, w) in alive and canon(v, w) in alive
        ]
        return k <= len(qs) and p_edge[e] * _tail(qs)[k] >= gamma - EPS

    return _deletion_fixpoint(list(p_edge), holds)
