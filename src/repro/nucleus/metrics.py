"""Quality metrics for probabilistic subgraphs (paper §7.4, Eq. 19–20).

* PD — probabilistic density: Σ p(e) / C(|V|, 2).
* PCC — probabilistic clustering coefficient:
  3·Σ_△ p(uv)p(vw)p(uw) / Σ_wedges p(uv)p(uw), wedge pairs unordered.

Both are computed in pandas: they score extracted nuclei, trusses and
cores, which are small, so a Spark job per subgraph would be all overhead.
The tests cross-check both against DuckDB SQL over the same edges.
"""
import pandas as pd


def pd_pcc_pandas(edges: pd.DataFrame) -> tuple[float, float]:
    """(PD, PCC) of a pandas edge list (u, v, p)."""
    if len(edges) == 0:
        return 0.0, 0.0
    verts = pd.unique(pd.concat([edges.u, edges.v]))
    nv = len(verts)
    pd_ = edges.p.sum() / (nv * (nv - 1) / 2.0) if nv > 1 else 0.0
    # wedge denominator: per centre u, (Σp)² − Σp² over incident edges, /2
    inc = pd.concat(
        [
            edges.rename(columns={"u": "c"})[["c", "p"]],
            edges.rename(columns={"v": "c"})[["c", "p"]],
        ]
    )
    g = inc.groupby("c").p.agg(["sum", lambda s: (s**2).sum()])
    wedges = ((g["sum"] ** 2 - g["<lambda_0>"]) / 2.0).sum()
    # triangle numerator via adjacency dict (subgraphs here are small)
    from repro.det.adjacency import adj_sets, canon, enumerate_triangles

    p_edge = {canon(u, v): p for u, v, p in edges[["u", "v", "p"]].itertuples(index=False)}
    tri_sum = sum(
        p_edge[canon(a, b)] * p_edge[canon(a, c)] * p_edge[canon(b, c)]
        for a, b, c in enumerate_triangles(adj_sets(p_edge))
    )
    pcc = 3.0 * tri_sum / wedges if wedges > 0 else 0.0
    return float(pd_), float(pcc)


def subgraph_stats(edges: pd.DataFrame) -> dict:
    """|V|, |E|, PD, PCC of a pandas edge list — one Table-4 style row."""
    verts = pd.unique(pd.concat([edges.u, edges.v])) if len(edges) else []
    density, pcc = pd_pcc_pandas(edges)
    return {"V": len(verts), "E": len(edges), "PD": density, "PCC": pcc}
