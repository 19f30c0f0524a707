"""Correctness checks of one benchmark run, run outside every timed span.

The tails here are computed from the generating polynomial
∏ (1 − q + q·x) with ``np.convolve``, independently of
``repro.prob.support``. Each check returns ``(ok, detail)``; the workload
counts every check as one operation of the run.
"""
import hashlib
from collections import defaultdict

import numpy as np

#: slack on the θ comparison of Definition 5 (float round-off only)
TOL = 1e-9
#: triangles checked per extracted nucleus
SAMPLE = 8


def tail(qs) -> np.ndarray:
    """Pr[ζ ≥ k] for k = 0..len(qs), ζ a sum of independent Bernoulli(q)."""
    poly = np.ones(1)
    for q in qs:
        poly = np.convolve(poly, (1.0 - q, q))
    return np.cumsum(poly[::-1])[::-1]


def _tail_at(qs, k: int) -> float:
    if k <= 0:
        return 1.0
    t = tail(qs)
    return float(t[k]) if k < t.size else 0.0


def triangle_of(decomp) -> dict:
    """tid -> sorted vertex triple, read from the decomposition's own frame."""
    t = decomp.tri_pdf
    return {
        tid: tuple(sorted((int(x), int(y), int(z))))
        for tid, x, y, z in zip(t.tid, t.x, t.y, t.z)
    }


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


def nu_digest(decomp) -> str:
    """Digest of ν keyed by sorted vertex triple, so the tid format is free."""
    tri = triangle_of(decomp)
    return _digest(f"{a},{b},{c}:{decomp.nu[t]}" for t, (a, b, c) in tri.items())


def nuclei_digest(per_k: dict) -> str:
    """Digest of {k: [NucleusSubgraph]} by sorted edge lists."""
    return _digest(
        f"{k}:" + ";".join(f"{u},{v}" for u, v in sorted(h.edges))
        for k, hs in per_k.items()
        for h in hs
    )


def _adjacency(edges: dict) -> dict:
    adj = defaultdict(dict)
    for (u, v), p in edges.items():
        adj[u][v] = p
        adj[v][u] = p
    return adj


def nucleus_sound(tri: dict, theta: float, nucleus, k: int) -> tuple[bool, str]:
    """Definition 5 on a fixed sample of the nucleus's triangles:
    Pr(△)·Pr[ζ_H(△) ≥ k] ≥ θ − TOL, ζ_H counting the 4-cliques of H.
    ``tri`` is :func:`triangle_of` of the decomposition."""
    adj = _adjacency(nucleus.edges)
    members = sorted(tri[t] for t in nucleus.tids)
    step = max(1, len(members) // SAMPLE)
    for a, b, c in members[::step][:SAMPLE]:
        p_tri = adj[a][b] * adj[a][c] * adj[b][c]
        common = adj[a].keys() & adj[b].keys() & adj[c].keys()
        qs = [adj[a][w] * adj[b][w] * adj[c][w] for w in sorted(common)]
        got = p_tri * _tail_at(qs, k)
        if got < theta - TOL:
            return False, f"triangle {(a, b, c)} at k={k}: {got:.6g} < θ={theta}"
    return True, ""


def kmax_close(dp, ap) -> tuple[bool, str]:
    ok = abs(dp.k_max - ap.k_max) <= 1
    return ok, "" if ok else f"θ={dp.theta}: AP k_max {ap.k_max} vs DP {dp.k_max}"


def inside_local(per_k: dict, local_per_k: dict, label: str) -> list[tuple[bool, str]]:
    """Every FG/WG nucleus at k lies inside the union of ℓ-(k,θ)-nuclei."""
    out = []
    for k, hs in per_k.items():
        union = set().union(*(h.edges.keys() for h in local_per_k.get(k, [])))
        for h in hs:
            extra = h.edges.keys() - union
            out.append((not extra, f"{label} k={k}: {len(extra)} edges outside C_k" if extra else ""))
    return out


def core_sound(k: int, comps, eta: float) -> tuple[bool, str]:
    """Every vertex of the max (k,η)-core has Pr[deg ≥ k] ≥ η inside it."""
    adj = _adjacency({e: p for h in comps for e, p in h.edges.items()})
    for v, nbrs in adj.items():
        got = _tail_at(list(nbrs.values()), k)
        if got < eta - TOL:
            return False, f"core vertex {v}: Pr[deg ≥ {k}] = {got:.6g} < η={eta}"
    return True, ""


def truss_sound(k: int, comps, gamma: float) -> tuple[bool, str]:
    """Every edge of the max (k,γ)-truss has p_e·Pr[ζ_e ≥ k] ≥ γ inside it."""
    adj = _adjacency({e: p for h in comps for e, p in h.edges.items()})
    for u in adj:
        for v, p in adj[u].items():
            if v < u:
                continue
            common = adj[u].keys() & adj[v].keys()
            got = p * _tail_at([adj[u][w] * adj[v][w] for w in sorted(common)], k)
            if got < gamma - TOL:
                return False, f"truss edge {(u, v)}: {got:.6g} < γ={gamma}"
    return True, ""
