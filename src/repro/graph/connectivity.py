"""Connected components of int elements merged by groups, including
s-connectivity of triangles (Definition 2, r=3, s=4).

Two triangles are s-connected when a chain of triangles links them such that
consecutive ones lie in a common 4-clique. Equivalently: merge the four
triangles of every 4-clique and take connected components. All callers work
on collected int arrays, not Spark: ℓ/w-nucleus extraction (tids merged by
the rows of ``clique_tri``), the deterministic k-nucleus check of one world,
the FG Monte-Carlo kernel (the triangles of many sampled worlds at once,
each world its own block of element ids) and the vertex components of the
core and truss baselines (vertices merged by edges).
"""
import numpy as np


def components(groups: np.ndarray, n: int) -> np.ndarray:
    """Per element 0..n−1, the minimum element of its component, where the
    elements of each row of the (G × s) int array ``groups`` are merged; an
    element in no group is its own component.

    Shiloach–Vishkin style: hook the root of every member of a group to the
    group's minimum root, then jump pointers until every label is a root;
    repeat until each group has one root. Labels only decrease and each
    stays in its element's component, so a root is its component's minimum.
    """
    label = np.arange(n)
    while True:
        roots = label[groups]
        low = roots.min(axis=1, keepdims=True, initial=n)
        if (roots == low).all():
            return label
        np.minimum.at(label, roots, np.broadcast_to(low, roots.shape))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
