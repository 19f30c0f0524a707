"""Connected components by union-find, including s-connectivity of triangles
(Definition 2, r=3, s=4).

Two triangles are s-connected when a chain of triangles links them such that
consecutive ones lie in a common 4-clique. Equivalently: merge the four
triangles of every 4-clique and take connected components. All callers work
on collected Python structures, not Spark: ℓ/w-nucleus extraction, the
deterministic k-nucleus check inside sampled worlds, and the vertex
components of the core and truss baselines.
"""
from collections import defaultdict
from typing import Hashable, Iterable, Sequence


def union_find(groups: Iterable[Sequence[Hashable]]) -> dict[Hashable, Hashable]:
    """Component label per element; each group in ``groups`` is merged.

    Returns {element: representative}; representatives are the minimal
    element of each component (requires orderable labels).
    """
    parent: dict = {}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    for group in groups:
        it = iter(group)
        try:
            first = next(it)
        except StopIteration:
            continue
        parent.setdefault(first, first)
        ra = find(first)
        for b in it:
            parent.setdefault(b, b)
            rb = find(b)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    # normalize to minimal representative
    return {a: find(a) for a in parent}


def components_of(groups: Iterable[Sequence[Hashable]]) -> list[set]:
    """Connected components (as sets of elements) induced by ``groups``."""
    labels = union_find(groups)
    comp: dict = defaultdict(set)
    for el, rep in labels.items():
        comp[rep].add(el)
    return list(comp.values())
