"""Shared graph constructors and DuckDB SQL used across the test suite."""
from itertools import combinations

import pandas as pd


def complete_graph(n: int, p: float = 1.0) -> pd.DataFrame:
    """K_n with uniform edge probability p."""
    return pd.DataFrame(
        [(u, v, p) for u, v in combinations(range(n), 2)], columns=["u", "v", "p"]
    )


def fig1_H() -> pd.DataFrame:
    """Paper Figure 1b subgraph H: base triangle (1,2,3) with probability-1
    edges, apex 4 attached via p(3,4)=0.6 and apex 5 via p(3,5)=0.5."""
    return pd.DataFrame(
        [
            (1, 2, 1.0),
            (1, 3, 1.0),
            (2, 3, 1.0),
            (1, 4, 1.0),
            (2, 4, 1.0),
            (3, 4, 0.6),
            (1, 5, 1.0),
            (2, 5, 1.0),
            (3, 5, 0.5),
        ],
        columns=["u", "v", "p"],
    )


def example2_K5() -> pd.DataFrame:
    """Paper Example 2 / Figure 2c: K5 with all probabilities 0.6.

    ℓ-(2,0.01)-nucleus (each triangle in 2 4-cliques w.p. 0.6^9 ≈ 0.0101)
    but not a w-(2,0.01)-nucleus (only the full K5 world is a 2-nucleus,
    probability 0.6^10 = 0.006)."""
    return complete_graph(5, 0.6)


def random_prob_graph(n: int, p_struct: float, seed: int) -> pd.DataFrame:
    """G(n, p_struct) with uniform(0,1] edge probabilities; canonical."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = [
        (u, v, 1.0 - rng.random())
        for u, v in combinations(range(n), 2)
        if rng.random() < p_struct
    ]
    return pd.DataFrame(rows, columns=["u", "v", "p"])


def triple_of(decomp) -> list[tuple]:
    """Per tid, the triangle's vertex ids as a sorted triple."""
    t = decomp.tri_pdf
    return [tuple(sorted(map(int, xyz))) for xyz in zip(t.x, t.y, t.z)]


def nu_by_triple(decomp) -> dict[tuple, int]:
    """ν of a decomposition keyed by sorted vertex triple."""
    return dict(zip(triple_of(decomp), decomp.nu.tolist()))


def edges_list(pdf: pd.DataFrame) -> list[tuple]:
    """pandas edge frame -> [(u, v, p)] list for the brute-force oracle."""
    return [(u, v, p) for u, v, p in pdf[["u", "v", "p"]].itertuples(index=False)]


#: DuckDB triangle enumeration over a canonical edge table named e:
#: each triangle once as id-sorted (a, b, c) with its existence probability.
TRIANGLE_SQL = """
SELECT e1.u AS a, e1.v AS b, e2.v AS c,
       e1.p * e2.p * e3.p AS p_tri
FROM e e1
JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
"""

#: DuckDB 4-clique enumeration: each clique once as id-sorted (a, b, c, d).
CLIQUE_SQL = """
WITH t AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
)
SELECT t.a, t.b, t.c, e4.v AS d
FROM t
JOIN e e4 ON e4.u = t.c
JOIN e e5 ON e5.u = t.a AND e5.v = e4.v
JOIN e e6 ON e6.u = t.b AND e6.v = e4.v
"""
