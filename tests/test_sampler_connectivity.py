"""Possible-world sampler determinism/unbiasedness and union-find components
(s-connectivity of extracted nuclei is tested in test_local_nucleus.py)."""
import numpy as np

from repro.graph.connectivity import components_of, union_find
from repro.prob.sampler import hoeffding_samples, world_masks


# --- sampler ----------------------------------------------------------------


def test_hoeffding_paper_values():
    assert hoeffding_samples(0.1, 0.1) == 150  # §7.5: ε=δ=0.1 → n=150
    assert hoeffding_samples(0.03, 0.05) <= 2050  # Table 5 row n=2000 regime


def test_world_masks_deterministic():
    p = np.array([0.2, 0.5, 0.9])
    a = world_masks(p, 20, (3, 7))
    b = world_masks(p, 20, (3, 7))
    assert a.shape == (20, 3)
    assert (a == b).all()


def test_world_masks_vary_with_sample_and_seed():
    p = np.full(64, 0.5)
    a = world_masks(p, 2, (0, 0))
    assert not (a == world_masks(p, 2, (1, 0))).all()
    assert not (a[0] == a[1]).all()


def test_world_masks_differ_between_candidates():
    """Two candidates of one seed, keyed (seed, c), draw different worlds."""
    p = np.full(64, 0.5)
    assert not (world_masks(p, 5, (0, 0)) == world_masks(p, 5, (0, 1))).all()


def test_world_masks_prefix_of_larger_draw():
    """A smaller sample is the first rows of a larger one from the same key."""
    p = np.linspace(0.05, 0.95, 37)
    assert (world_masks(p, 150, (4, 2)) == world_masks(p, 2000, (4, 2))[:150]).all()


def test_edge_frequencies_match_probabilities():
    p = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    freq = world_masks(p, 4000, (5, 0)).mean(axis=0)
    assert np.abs(freq - p).max() < 0.03


def test_certain_and_impossible_edges():
    p = np.array([0.0, 1.0])
    worlds = world_masks(p, 50, (1, 0))
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
