"""Possible-world sampler determinism/unbiasedness and the int-array
component labeller (s-connectivity of extracted nuclei is tested in
test_local_nucleus.py)."""
from collections import deque

import numpy as np
import pytest

from repro.graph.connectivity import components
from repro.prob.sampler import world_masks


# --- sampler ----------------------------------------------------------------


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


# --- components ------------------------------------------------------------


def bfs_components(groups, n: int) -> list[int]:
    """Per element, the minimum element of its component, by breadth-first
    search over the graph that links each group's members in a chain."""
    nbrs = [[] for _ in range(n)]
    for row in np.asarray(groups).reshape(len(groups), -1).tolist():
        for a, b in zip(row, row[1:]):
            nbrs[a].append(b)
            nbrs[b].append(a)
    label = [-1] * n
    for root in range(n):  # ascending, so each root is its component's minimum
        if label[root] >= 0:
            continue
        label[root] = root
        todo = deque([root])
        while todo:
            for b in nbrs[todo.popleft()]:
                if label[b] < 0:
                    label[b] = root
                    todo.append(b)
    return label


def test_components_min_representative():
    label = components(np.array([[3, 1], [1, 2], [9, 8]]), 10)
    assert label[1] == label[2] == label[3] == 1
    assert label[8] == label[9] == 8


def test_components_disjoint_groups():
    # a, b, c, d = 0, 1, 2, 3; a one-element group merges nothing
    label = components(np.array([[0, 1], [2, 2], [1, 3]]), 4)
    assert label.tolist() == [0, 0, 2, 0]


def test_components_empty():
    assert components(np.zeros((0, 4), np.int64), 0).tolist() == []


@pytest.mark.parametrize("s", [1, 2, 4])
@pytest.mark.parametrize("seed", range(5))
def test_components_match_bfs(s, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    groups = rng.integers(0, n, (int(rng.integers(0, n)), s))
    assert components(groups, n).tolist() == bfs_components(groups, n)


def test_components_no_groups():
    assert components(np.zeros((0, 2), np.int64), 5).tolist() == [0, 1, 2, 3, 4]


def test_components_elements_in_no_group():
    # 0, 5 and 9 are in no group: each is its own component
    groups = np.array([[7, 3, 4, 8], [2, 1, 6, 3]])
    label = components(groups, 10)
    assert label.tolist() == bfs_components(groups, 10)
    assert label.tolist() == [0, 1, 1, 1, 1, 5, 1, 1, 1, 9]


def test_components_descending_path():
    """Groups (i, i+1) for i from the top down: each hook pass alone moves
    the minimum one step, so only pointer jumping makes this fast."""
    n = 10_000
    groups = np.stack([np.arange(n - 2, -1, -1), np.arange(n - 1, 0, -1)], axis=1)
    assert (components(groups, n) == 0).all()
