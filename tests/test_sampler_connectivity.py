"""Possible-world sampler determinism/unbiasedness and union-find components
(s-connectivity of extracted nuclei is tested in test_local_nucleus.py)."""
import numpy as np

from repro.graph.connectivity import components_of, union_find
from repro.prob.sampler import hoeffding_samples, world_mask


# --- sampler ----------------------------------------------------------------


def test_hoeffding_paper_values():
    assert hoeffding_samples(0.1, 0.1) == 150  # §7.5: ε=δ=0.1 → n=150
    assert hoeffding_samples(0.03, 0.05) <= 2050  # Table 5 row n=2000 regime


def test_world_mask_deterministic():
    p = np.array([0.2, 0.5, 0.9])
    a = world_mask(p, (3, 7))
    b = world_mask(p, (3, 7))
    assert (a == b).all()


def test_world_mask_varies_with_sample_and_seed():
    p = np.full(64, 0.5)
    assert not (world_mask(p, (0, 0, 0)) == world_mask(p, (0, 0, 1))).all()
    assert not (world_mask(p, (0, 0, 0)) == world_mask(p, (0, 1, 0))).all()
    assert not (world_mask(p, (0, 0, 0)) == world_mask(p, (1, 0, 0))).all()


def test_edge_frequencies_match_probabilities():
    p = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    worlds = np.stack([world_mask(p, (5, s)) for s in range(4000)])
    freq = worlds.mean(axis=0)
    assert np.abs(freq - p).max() < 0.03


def test_certain_and_impossible_edges():
    p = np.array([0.0, 1.0])
    worlds = np.stack([world_mask(p, (1, s)) for s in range(50)])
    assert not worlds[:, 0].any()
    assert worlds[:, 1].all()


# --- union-find / components ------------------------------------------------


def test_union_find_min_representative():
    labels = union_find([[3, 1], [1, 2], [9, 8]])
    assert labels[1] == labels[2] == labels[3] == 1
    assert labels[8] == labels[9] == 8


def test_components_of_disjoint_groups():
    comps = components_of([["a", "b"], ["c"], ["b", "d"]])
    assert sorted(map(sorted, comps)) == [["a", "b", "d"], ["c"]]


def test_components_empty():
    assert components_of([]) == []
