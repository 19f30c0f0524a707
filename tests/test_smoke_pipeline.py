"""End-to-end smoke tests: enumeration → scoring → peeling on tiny graphs."""
import pandas as pd
import pytest

from helpers import nu_by_triple
from repro.bruteforce import local_nu_reference
from repro.nucleus.local import ell_nuclei, local_decomposition


def k6_edges():
    """Complete graph K6, all probabilities 0.9."""
    return pd.DataFrame(
        [(u, v, 0.9) for u in range(6) for v in range(u + 1, 6)],
        columns=["u", "v", "p"],
    )


@pytest.fixture(scope="module")
def k6_decomp(spark):
    return local_decomposition(spark, spark.createDataFrame(k6_edges()), 0.1)


def test_k6_triangle_count(k6_decomp):
    assert len(k6_decomp.tri_pdf) == 20  # C(6,3)


def test_k6_clique_count(k6_decomp):
    assert len(k6_decomp.clique_pdf) == 15  # C(6,4)


def test_k6_nu_uniform_and_positive(k6_decomp):
    # symmetry: every triangle of K6 gets the same ν; with p=.9, θ=.1 some k≥1
    vals = set(k6_decomp.nu.tolist())
    assert len(vals) == 1
    assert vals.pop() >= 1


def test_k6_matches_bruteforce_reference(spark, k6_decomp):
    ref = local_nu_reference(
        [(u, v, p) for u, v, p in k6_edges().itertuples(index=False)], 0.1
    )
    assert nu_by_triple(k6_decomp) == ref


def test_k6_nuclei_extraction(k6_decomp):
    nuclei = ell_nuclei(k6_decomp, k6_decomp.k_max)
    assert len(nuclei) == 1
    assert nuclei[0].vertices == set(range(6))
    assert len(nuclei[0].edges) == 15
