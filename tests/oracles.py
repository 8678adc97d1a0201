"""Independent reference paths the fast code is checked against.

closure_orbit_labels closes each vertex under the generators with plain
Python tuples and a dict, with no keys and no searchsorted.
single_level_census is the one-level orbit reduction: one vertex per
W-orbit, counting every (omega-1)-clique of its neighborhood directly.
csr_stats reads the graph parameters off the explicit edge list.
enumerated_sunflower_census lists every maximum clique through one vertex
per coordinate-permutation orbit and classifies each by its column profile.
"""

from __future__ import annotations

import numpy as np

from sosgraphs.clique import (
    clique_number,
    collect_cliques_of_size,
    count_cliques_of_size_bitset,
    induced_bitrows,
    max_clique_size_bitset,
)
from sosgraphs.graph import GraphStats
from sosgraphs.sunflower import perm_orbit_labels


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


def plain_permutation_roots(rs) -> list:
    """The positive roots a(e_i - e_j): their reflections swap two coordinates."""
    return [alpha for alpha in rs.roots[len(rs.roots) // 2 :]
            if sum(1 for x in alpha if x) == 2 and sum(alpha) == 0]


def _exact(weighted: int, omega: int) -> int:
    quotient, rem = divmod(weighted, omega)
    if rem:
        raise ArithmeticError(f"weighted count {weighted} not divisible by {omega}")
    return quotient


def enumerated_sunflower_census(g, rs) -> tuple[int, int, int]:
    """(omega, maximum cliques, sunflowers) by listing cliques, unpruned.

    Every maximum clique through one vertex per coordinate-permutation
    orbit is listed and classified by its column profile; both weighted
    sums must divide exactly by omega.
    """
    omega = clique_number(g)
    if omega == 0:
        return 0, 0, 0
    labels = perm_orbit_labels(plain_permutation_roots(rs), g.vertices)
    reps = np.unique(labels, return_index=True)[1].tolist()
    nonzero = (g.vertices.vectors != 0).astype(np.int8)
    total = sunflowers = 0
    for size, rep in zip(np.bincount(labels).tolist(), reps):
        if omega == 1:
            total += size
            continue
        nb = g.neighbors(rep)
        local = collect_cliques_of_size(induced_bitrows(g, nb), (1 << nb.size) - 1, omega - 1)
        cliques = np.column_stack([np.full(local.shape[0], rep), nb[local]])
        profile = nonzero[cliques].sum(axis=1)
        ok = ((profile == 0) | (profile == 1) | (profile == omega)).all(axis=1)
        ok &= (profile == omega).any(axis=1)
        total += size * local.shape[0]
        sunflowers += size * int(ok.sum())
    return omega, _exact(total, omega), _exact(sunflowers, omega)
