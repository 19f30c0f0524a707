"""Synthetic probabilistic graphs for the nucleus-decomposition reproduction.

The paper evaluates on real probabilistic networks (krogan/dblp/flickr/
biomine) and on social networks with synthetic uniform probabilities
(pokec/ljournal/enwiki). Offline, we synthesize graphs with the structural
knobs the algorithms are sensitive to: planted near-clique communities
(these become the nuclei; community size controls c_triangle = per-triangle
4-clique support), sparse background edges, optional hub vertices (degree
skew), and a configurable edge-probability distribution matched to each
dataset's p_avg. Deterministic in ``seed``. See DESIGN.md §4.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def edge_probabilities(
    rng: np.random.Generator, n: int, dist: str = "uniform", mean: float | None = None
) -> np.ndarray:
    """Draw ``n`` edge existence probabilities in (0, 1] from ``dist``.

    dist ∈ {"uniform", "beta", "normal", "pareto"}. ``beta`` uses a
    concentration-2.5 Beta with the given mean (mimics Jaccard-style measured
    probabilities: mostly small, some large). ``normal`` is N(mean, 0.15)
    clipped; ``pareto`` is a heavy-tailed small-probability distribution
    (mean ~0.08), matching the paper's Table 3 pokec_Pareto regime where
    max nucleus scores collapse to ~2.
    """
    if dist == "uniform":
        return 1.0 - rng.random(n)  # (0, 1]
    if dist == "beta":
        m = 0.5 if mean is None else mean
        k0 = 2.5
        return np.clip(rng.beta(m * k0, (1.0 - m) * k0, n), 1e-6, 1.0)
    if dist == "normal":
        m = 0.5 if mean is None else mean
        return np.clip(rng.normal(m, 0.15, n), 0.01, 1.0)
    if dist == "pareto":
        return np.minimum(1.0, 0.05 * (1.0 + rng.pareto(2.5, n)))
    raise ValueError(f"unknown probability distribution {dist!r}")


def probabilistic_graph_pdf(
    *,
    n_vertices: int,
    communities: list[int] | None = None,
    density: float = 0.95,
    bg_edges: int = 0,
    hubs: list[int] | None = None,
    books: list[int] | None = None,
    dist: str = "uniform",
    dist_mean: float | None = None,
    intra_boost: float = 0.35,
    seed: int = 0,
) -> pd.DataFrame:
    """Planted-community probabilistic graph as a pandas edge list (u < v, p).

    ``communities`` lists community sizes; members are disjoint vertex blocks
    0..sum(sizes)-1, each internally wired as a near-clique (each pair present
    with structural probability ``density``). Intra-community existence
    probabilities are lifted as p = intra_boost + (1-intra_boost)*raw so that
    planted nuclei survive moderate thresholds θ. ``bg_edges`` uniform random
    pairs and ``hubs`` star-degrees (probability from the raw distribution)
    add the sparse background and degree skew. Duplicate pairs keep the max p.
    """
    rng = _rng(seed)
    communities = communities or []
    hubs = hubs or []
    if sum(communities) > n_vertices:
        raise ValueError("communities do not fit in n_vertices")
    us, vs, ps, boost = [], [], [], []
    base = 0
    for size in communities:
        members = np.arange(base, base + size)
        base += size
        iu, iv = np.triu_indices(size, k=1)
        keep = rng.random(iu.size) < density
        us.append(members[iu[keep]])
        vs.append(members[iv[keep]])
        boost.append(np.ones(int(keep.sum()), dtype=bool))
    if bg_edges > 0:
        a = rng.integers(0, n_vertices, bg_edges)
        b = rng.integers(0, n_vertices, bg_edges)
        ok = a != b
        us.append(np.minimum(a[ok], b[ok]))
        vs.append(np.maximum(a[ok], b[ok]))
        boost.append(np.zeros(int(ok.sum()), dtype=bool))
    for n_sat in books or []:
        core = rng.choice(n_vertices, size=3, replace=False)
        sats = rng.choice(
            np.setdiff1d(np.arange(n_vertices), core),
            size=min(n_sat, n_vertices - 3),
            replace=False,
        )
        for a, b in ((0, 1), (0, 2), (1, 2)):
            us.append(np.array([min(core[a], core[b])]))
            vs.append(np.array([max(core[a], core[b])]))
            boost.append(np.ones(1, dtype=bool))
        for cv in core:
            us.append(np.minimum(cv, sats))
            vs.append(np.maximum(cv, sats))
            boost.append(np.zeros(sats.size, dtype=bool))
    for deg in hubs:
        hub = int(rng.integers(0, n_vertices))
        nbr = rng.choice(n_vertices, size=min(deg, n_vertices - 1), replace=False)
        nbr = nbr[nbr != hub]
        us.append(np.minimum(hub, nbr))
        vs.append(np.maximum(hub, nbr))
        boost.append(np.zeros(nbr.size, dtype=bool))
    u = np.concatenate(us) if us else np.array([], dtype=np.int64)
    v = np.concatenate(vs) if vs else np.array([], dtype=np.int64)
    bo = np.concatenate(boost) if boost else np.array([], dtype=bool)
    raw = edge_probabilities(rng, u.size, dist, dist_mean)
    p = np.where(bo, intra_boost + (1.0 - intra_boost) * raw, raw)
    pdf = pd.DataFrame(
        {"u": u.astype(np.int64), "v": v.astype(np.int64), "p": p.astype(np.float64)}
    )
    return (
        pdf.groupby(["u", "v"], as_index=False)["p"].max().reset_index(drop=True)
    )
