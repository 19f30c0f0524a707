"""Pinned extraction outputs: the all-k ℓ-nuclei and the maximum core and
truss components, as digests of their vertex, edge and tid sets in list
order, recorded with the dict-based union-find labeller that preceded the
numpy one."""
import hashlib
import json

import pytest

from repro.datasets import analog_pdf
from repro.nucleus.local import collect_structures, ell_nuclei, local_decomposition
from repro.prob.core import max_eta_cores
from repro.prob.truss import max_gamma_trusses

#: (graph, sf, θ) -> (ℓ-nuclei of every k, max (k,η)-core components,
#: max (k,γ)-truss components), each a :func:`digest`
PINNED = {
    ("krogan", 0.15, 0.1): ("abfbb8df8a4a5511", "11968a8bd11fb8d7", "670018ac881f32ef"),
    ("krogan", 0.15, 0.3): ("bcb6d9bdb7003149", "02105da3a500a913", "8bd6c0ddc26e23e5"),
    ("enwiki", 0.04, 0.1): ("4c5f819dd4da090a", "c2956824b7f2467d", "926014a65b2e67a2"),
    ("enwiki", 0.04, 0.3): ("7a121e398e3c763e", "e872e8780b095303", "ee97515b56310eb3"),
}


def digest(k_and_subgraphs) -> str:
    """sha256 of each subgraph's k, sorted vertices, sorted (u, v, p) edges
    and sorted tids, in list order."""
    rows = [
        [
            int(k),
            sorted(int(v) for v in h.vertices),
            sorted([int(u), int(v), float(p)] for (u, v), p in h.edges.items()),
            sorted(int(t) for t in h.tids),
        ]
        for k, subs in k_and_subgraphs
        for h in subs
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def extraction_digests(spark, graph: str, sf: float) -> dict:
    """The three digests of every θ of :data:`PINNED` on one graph."""
    pdf = analog_pdf(graph, sf=sf)
    edge_df = spark.createDataFrame(pdf)
    structs = collect_structures(spark, edge_df)
    out = {}
    for theta in (0.1, 0.3):
        d = local_decomposition(spark, edge_df, theta, scorer="dp", structures=structs)
        ell = [(k, ell_nuclei(d, k)) for k in range(0, d.k_max + 2)]
        out[graph, sf, theta] = (
            digest(ell),
            digest([max_eta_cores(pdf, theta)]),
            digest([max_gamma_trusses(pdf, theta)]),
        )
    return out


@pytest.mark.parametrize("graph,sf", [("krogan", 0.15), ("enwiki", 0.04)])
def test_extraction_matches_pinned(spark, graph, sf):
    got = extraction_digests(spark, graph, sf)
    assert got == {key: PINNED[key] for key in got}
