"""The probabilistic edge list: its input check and its degree orientation.

Every layer reads edges through :func:`edge_arrays`, which checks the
canonical form and repairs nothing: undirected edges listed once, in either
orientation, as (u, v, p) with 0 < p <= 1 and no self-loops.

Triangle / 4-clique enumeration uses the standard degree orientation
(Chiba & Nishizeki, 1985): each undirected edge is directed from the
endpoint of smaller (degree, id) to the larger. Orienting by a total order
bounded by degeneracy keeps the wedge join output near-linear in practice (a
hub of degree d contributes O(d^2) wedges undirected but only pairs among
its *higher-ordered* neighbours when oriented). The orientation needs only
the degree at each end of an edge, so :func:`orient` computes it with numpy
on the driver; ``spark.createDataFrame(orient(pdf), ORIENTED)`` hands the
O(|E|) result back to Spark, small enough for the enumeration joins to
broadcast.
"""
import numpy as np
import pandas as pd

#: Spark schema of an oriented edge frame (:func:`orient`)
ORIENTED = "src long, dst long, p double, dd long"


def edge_arrays(edges: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The u, v and p columns of a pandas edge frame, each edge listed once
    in either orientation. A p that is null, NaN, ≤ 0 or > 1, a self-loop,
    or an edge listed twice raises ValueError naming the edge."""
    u, v = edges.u.to_numpy(), edges.v.to_numpy()
    p = edges.p.to_numpy(np.float64)
    pair = pd.DataFrame({"lo": np.minimum(u, v), "hi": np.maximum(u, v)})
    for bad, why in (
        (~((p > 0) & (p <= 1)), "has probability {p}; p must be in (0, 1]"),
        (u == v, "is a self-loop"),
        (pair.duplicated().to_numpy(), "is listed twice"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"edge ({u[i]}, {v[i]}) " + why.format(p=p[i]))
    return u, v, p


def orient(edges: pd.DataFrame) -> pd.DataFrame:
    """Directed edges (src, dst, p, dd) of a pandas (u, v, p) edge frame,
    checked by :func:`edge_arrays`: each edge once, from the endpoint of
    smaller (degree, id) to the larger, with the degree dd of dst (the
    triangle wedge filter orders two out-neighbours by it)."""
    u, v, p = edge_arrays(edges)
    u, v = u.astype(np.int64), v.astype(np.int64)
    ends = np.unique(np.concatenate([u, v]), return_inverse=True)[1]
    deg = np.bincount(ends)
    du, dv = deg[ends[: len(u)]], deg[ends[len(u) :]]
    fwd = (du < dv) | ((du == dv) & (u < v))
    return pd.DataFrame(
        {
            "src": np.where(fwd, u, v),
            "dst": np.where(fwd, v, u),
            "p": p,
            "dd": np.where(fwd, dv, du),
        }
    )

