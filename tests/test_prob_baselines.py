"""Probabilistic (k,η)-core and (k,γ)-truss baselines."""
import pandas as pd
import pytest

from helpers import complete_graph, edges_list, random_prob_graph
from repro.bruteforce import (
    core_numbers,
    eta_core_fixpoint,
    gamma_truss_fixpoint,
    truss_numbers,
)
from repro.prob.core import eta_core_numbers, max_eta_cores
from repro.prob.truss import gamma_truss_numbers, max_gamma_trusses


# --- (k,η)-core -------------------------------------------------------------


def test_core_deterministic_limit():
    """p = 1, η = 1 reduces to the deterministic k-core."""
    pdf = random_prob_graph(12, 0.5, seed=1).assign(p=1.0)
    got = eta_core_numbers(pdf, 1.0)
    det = core_numbers([(u, v) for u, v, _ in edges_list(pdf)])
    assert got == det


def test_core_complete_graph():
    core = eta_core_numbers(complete_graph(5, 0.9), 0.1)
    assert set(core.values()) == {4}


def test_core_eta_monotone():
    pdf = random_prob_graph(12, 0.5, seed=2)
    lo = eta_core_numbers(pdf, 0.1)
    hi = eta_core_numbers(pdf, 0.6)
    for v in lo:
        assert hi[v] <= lo[v]


def test_core_low_prob_star():
    star = pd.DataFrame([(0, i, 0.05) for i in range(1, 8)], columns=["u", "v", "p"])
    core = eta_core_numbers(star, 0.5)
    assert core[0] == 0  # Pr[≥1 of 7 p=.05 edges] ≈ .30 < .5


def test_max_eta_cores_extraction():
    pdf = complete_graph(5, 0.9)
    k, comps = max_eta_cores(pdf, 0.1)
    assert k == 4 and len(comps) == 1
    assert comps[0].vertices == set(range(5))


def test_max_eta_cores_two_components():
    a = complete_graph(4, 0.95)
    b = complete_graph(4, 0.95).assign(u=lambda d: d.u + 10, v=lambda d: d.v + 10)
    k, comps = max_eta_cores(pd.concat([a, b], ignore_index=True), 0.2)
    assert len(comps) == 2


# --- (k,γ)-truss ------------------------------------------------------------


def test_truss_deterministic_limit():
    pdf = random_prob_graph(10, 0.6, seed=3).assign(p=1.0)
    got = gamma_truss_numbers(pdf, 1.0)
    det = truss_numbers([(u, v) for u, v, _ in edges_list(pdf)])
    assert got == det


def test_truss_complete_graph():
    t = gamma_truss_numbers(complete_graph(5, 0.95), 0.1)
    assert set(t.values()) == {3}


def test_truss_gamma_monotone():
    pdf = random_prob_graph(10, 0.7, seed=4)
    lo = gamma_truss_numbers(pdf, 0.1)
    hi = gamma_truss_numbers(pdf, 0.5)
    for e in lo:
        assert hi[e] <= lo[e]


def test_truss_low_prob_edges_excluded():
    pdf = complete_graph(4, 0.9)
    pdf.loc[0, "p"] = 0.01  # below γ → −1
    t = gamma_truss_numbers(pdf, 0.3)
    assert t[(0, 1)] == -1


def test_max_gamma_trusses_extraction():
    k, comps = max_gamma_trusses(complete_graph(6, 0.9), 0.1)
    assert k >= 2 and len(comps) == 1
    assert comps[0].vertices == set(range(6))


# --- fractional θ: the definitions' deletion fixpoint ----------------------


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("seed", range(5))
def test_core_matches_definition_fixpoint(seed, theta):
    pdf = random_prob_graph(12, 0.5, seed=seed)
    assert eta_core_numbers(pdf, theta) == eta_core_fixpoint(edges_list(pdf), theta)


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("seed", range(5))
def test_truss_matches_definition_fixpoint(seed, theta):
    pdf = random_prob_graph(12, 0.6, seed=seed)
    assert gamma_truss_numbers(pdf, theta) == gamma_truss_fixpoint(edges_list(pdf), theta)


# --- bad input fails at the boundary ----------------------------------------

BASELINES = [eta_core_numbers, gamma_truss_numbers]


@pytest.mark.parametrize("numbers", BASELINES)
def test_self_loop_rejected(numbers):
    pdf = pd.concat([complete_graph(4, 0.9), pd.DataFrame({"u": [2], "v": [2], "p": [0.5]})])
    with pytest.raises(ValueError, match=r"edge \(2, 2\) is a self-loop"):
        numbers(pdf, 0.1)


@pytest.mark.parametrize("numbers", BASELINES)
@pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
def test_repeated_edge_rejected(numbers, pair):
    """(u, v) listed twice, or as (u, v) and (v, u)."""
    extra = pd.DataFrame({"u": [pair[0]], "v": [pair[1]], "p": [0.5]})
    pdf = pd.concat([complete_graph(4, 0.9), extra], ignore_index=True)
    with pytest.raises(ValueError, match=rf"edge \({pair[0]}, {pair[1]}\) is listed twice"):
        numbers(pdf, 0.1)


@pytest.mark.parametrize("numbers", BASELINES)
@pytest.mark.parametrize("p", [float("nan"), 0.0, -0.2, 1.5])
def test_probability_outside_unit_interval_rejected(numbers, p):
    pdf = complete_graph(4, 0.9)
    pdf.loc[3, "p"] = p  # edge (1, 2)
    with pytest.raises(ValueError, match=r"edge \(1, 2\) has probability .*\(0, 1\]"):
        numbers(pdf, 0.1)


# --- paper §7.4 shape: nucleus ≥ truss ≥ core on PD/PCC ---------------------


def test_cohesiveness_ordering_on_planted_graph(spark):
    """The densest nucleus is at least as dense as the densest truss, which
    beats the densest core — the Table 4 headline, on a planted graph."""
    from repro.nucleus.local import ell_nuclei, local_decomposition
    from repro.nucleus.metrics import subgraph_stats
    from repro.synth_data import probabilistic_graph_pdf

    pdf = probabilistic_graph_pdf(
        n_vertices=120, communities=[10, 8], bg_edges=300, dist="beta",
        dist_mean=0.4, seed=9,
    )
    theta = 0.1
    d = local_decomposition(spark, spark.createDataFrame(pdf), theta)
    nuclei = ell_nuclei(d, d.k_max)
    _, trusses = max_gamma_trusses(pdf, theta)
    _, cores = max_eta_cores(pdf, theta)
    pd_n = max(subgraph_stats(h.edge_pdf)["PD"] for h in nuclei)
    pd_t = max(subgraph_stats(h.edge_pdf)["PD"] for h in trusses)
    pd_c = max(subgraph_stats(h.edge_pdf)["PD"] for h in cores)
    # core (1-hop degree condition) is the loosest notion — strictly beaten;
    # nucleus vs truss differ by small margins at this toy scale (the full
    # Table 4 comparison runs at dataset scale in `jobs/run.py table4`)
    assert pd_n >= pd_c + 0.05
    assert pd_t >= pd_c + 0.05
    assert pd_n >= pd_t - 0.05
