"""Independent reference paths the fast code is checked against.

closure_orbit_labels closes each vertex under the generators with plain
Python tuples and a dict, with no keys and no searchsorted.
single_level_census is the one-level orbit reduction: one vertex per
W-orbit, counting every (omega-1)-clique of its neighborhood directly.
csr_stats reads the graph parameters off the explicit edge list.
"""

from __future__ import annotations

import numpy as np

from sosgraphs.clique import (
    count_cliques_of_size_bitset,
    induced_bitrows,
    max_clique_size_bitset,
)
from sosgraphs.graph import GraphStats


def closure(seeds, maps) -> set:
    """Every image of the seeds under words in the maps (breadth first)."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        fresh = []
        for row in frontier:
            for act in maps:
                image = act(row)
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return seen


def closure_orbit_labels(rows, maps) -> list[int]:
    """Orbit id per row, numbered by lowest row index; KeyError on escape."""
    index = {row: i for i, row in enumerate(rows)}
    labels = [-1] * len(rows)
    orbit = 0
    for start, row in enumerate(rows):
        if labels[start] >= 0:
            continue
        for member in closure([row], maps):
            labels[index[member]] = orbit
        orbit += 1
    return labels


def single_level_census(g) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(omega, per-orbit (orbit size, maximum cliques through a vertex))."""
    if g.n == 0:
        return 0, ()
    omega = 1
    hoods = []
    for size, v in zip(g.orbit_sizes(), g.orbit_representatives()):
        nb = g.neighbors(v)
        rows = induced_bitrows(g, nb)
        full = (1 << nb.size) - 1
        if nb.size:
            omega = max(omega, 1 + max_clique_size_bitset(rows, full, omega - 1))
        hoods.append((size, rows, full))
    per_orbit = tuple(
        (size, 1 if omega == 1 else count_cliques_of_size_bitset(rows, full, omega - 1))
        for size, rows, full in hoods
    )
    return omega, per_orbit


def csr_stats(g) -> GraphStats:
    """Graph parameters read off an explicit CSR edge list.

    Degrees are row lengths and components come from a depth-first
    search, with no orbit reasoning.
    """
    n = g.n
    if n == 0:
        return GraphStats(0, 0, 0, 0, True, 0, (), 0)
    deg = np.diff(g.indptr)
    component = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start] = start
        stack = [start]
        while stack:
            reached = g.neighbors(stack.pop())
            reached = reached[component[reached] < 0]
            component[reached] = start
            stack.extend(reached.tolist())
    sizes = np.bincount(component)
    sizes = tuple(sorted((int(s) for s in sizes[sizes > 0]), reverse=True))
    return GraphStats(
        n=n,
        m=g.indices.size // 2,
        min_degree=int(deg.min()),
        max_degree=int(deg.max()),
        is_regular=bool(deg.min() == deg.max()),
        component_count=len(sizes),
        component_sizes=sizes,
        isolated_vertex_count=int((deg == 0).sum()),
    )
