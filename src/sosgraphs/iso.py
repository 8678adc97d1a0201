"""Structural checks: scaling maps, the mod-8 norm constraint, degree
formula, Weyl automorphism action, and small-graph isomorphism with an
explicit bijection (individualization-refinement)."""

from __future__ import annotations

import numpy as np

from sosgraphs.graph import MembershipGraph, membership_graph, reflection_permutations, stats
from sosgraphs.roots import RootSystem, encode_rows
from sosgraphs.sos import vertex_set

DEFAULT_ISO_BOUND = 5000


def check_scaling_isomorphism(rs: RootSystem, k_small: int, k_large: int) -> bool:
    """True iff the k_large vertex set is exactly twice the k_small one."""
    small = vertex_set(rs, k_small)
    large = vertex_set(rs, k_large)
    if len(small) != len(large):
        return False
    doubled = np.sort(encode_rows(2 * small.vectors.astype(np.int64)))
    return bool(np.array_equal(doubled, large.keys))


def _within_bound(n: int, what: str) -> None:
    """The exhaustive checks hold an n x n array; refuse n above the bound."""
    if n > DEFAULT_ISO_BOUND:
        raise ValueError(f"{what}: {n} vertices exceed the exhaustive bound {DEFAULT_ISO_BOUND}")


def check_mod8(rs: RootSystem) -> dict:
    """Doubled squared distances divisible by 32 on the top-level vertex set.

    The top level is the maximum SOS size (the rank for E7/E8; 4 for E6,
    where it is a scaled copy of level 1). Every pair is checked.
    """
    vs = vertex_set(rs, rs.max_sos_size)
    n = len(vs)
    _within_bound(n, f"mod-8 check on {rs.label}")
    vecs = vs.vectors.astype(np.int64)
    gram = vecs @ vecs.T
    norms = np.diag(gram)
    dist2 = norms[:, None] + norms[None, :] - 2 * gram
    return {"ok": bool((dist2 % 32 == 0).all()), "pairs": n * (n - 1) // 2}


def check_degree_formula(rs: RootSystem) -> bool:
    """Level-1 graph is regular of degree 2(h - 2) for simply-laced systems."""
    s = stats(membership_graph(rs, 1))
    want = 2 * (rs.coxeter_number - 2)
    return s.is_regular and s.min_degree == want


def check_weyl_automorphism(g: MembershipGraph, rs: RootSystem) -> dict:
    """Each simple reflection permutes vertices and preserves (non-)adjacency.

    Exact over every vertex pair: with adj the all-pairs edge test and p a
    reflection's vertex permutation, adj[p][:, p] must equal adj.
    """
    _within_bound(g.n, f"Weyl automorphism check on {g.label} k={g.k}")
    every = np.arange(g.n)
    adj = g.vertices.adjacent(every[:, None], every[None, :])
    report = {"ok": True, "reflections": len(rs.simple_roots)}
    for idx, perm in enumerate(reflection_permutations(rs.simple_roots, g.vertices.vectors)):
        if not np.array_equal(adj[np.ix_(perm, perm)], adj):
            return {**report, "ok": False, "failed_reflection": idx}
    return report


def _adjacency_sets(g: MembershipGraph) -> list[set[int]]:
    return [set(g.neighbors(v).tolist()) for v in range(g.n)]


def _refine_colors(colors: list[int], adj: list[set[int]]) -> list[int]:
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        fresh = [palette[s] for s in sigs]
        if fresh == colors:
            return colors
        colors = fresh


def _isomorphisms(g1: MembershipGraph, g2: MembershipGraph):
    """Every isomorphism g1 -> g2, as a list of g2 indices per g1 vertex.

    Individualization-refinement (McKay, "Practical graph isomorphism",
    1981) on the disjoint union, so that one palette colours both sides:
    refine to stability and prune when the sides' colour counts differ;
    otherwise individualize the first vertex of g1's smallest non-singleton
    cell against each g2 vertex of its colour. A discrete colouring is a
    bijection, and stability makes it an isomorphism.
    """
    n = g1.n
    adj = _adjacency_sets(g1) + [{w + n for w in nb} for nb in _adjacency_sets(g2)]

    def search(colors):
        colors = _refine_colors(colors, adj)
        if sorted(colors[:n]) != sorted(colors[n:]):
            return
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        open_cells = [cell for cell in cells.values() if len(cell) > 1]
        if not open_cells:
            partner = {colors[w]: w - n for w in range(n, 2 * n)}
            yield [partner[c] for c in colors[:n]]
            return
        v = min(open_cells, key=len)[0]
        for w in range(n, 2 * n):
            if colors[w] == colors[v]:
                fresh = colors.copy()
                fresh[v] = fresh[w] = max(colors) + 1
                yield from search(fresh)

    yield from search([0] * (2 * n))


def check_graph_isomorphism_small(
    g1: MembershipGraph, g2: MembershipGraph, bound: int = DEFAULT_ISO_BOUND
) -> tuple[bool, list[int] | None]:
    """Isomorphism decision with an explicit vertex bijection when true.

    Screens by vertex count, then takes the first isomorphism of the
    individualization-refinement search and verifies it edge by edge. The
    search's first refinement already separates different degree
    multisets, so different edge counts come out (False, None).
    """
    if max(g1.n, g2.n) > bound:
        raise ValueError(f"graphs exceed isomorphism search bound {bound}")
    if g1.n != g2.n:
        return False, None
    mapping = next(_isomorphisms(g1, g2), None)
    if mapping is None:
        return False, None
    adj2 = _adjacency_sets(g2)
    for v in range(g1.n):
        for w in g1.neighbors(v).tolist():
            if mapping[w] not in adj2[mapping[v]]:
                raise AssertionError("isomorphism verification failed")
    return True, mapping


def count_automorphisms_small(g: MembershipGraph, bound: int = 100) -> int:
    """Exact automorphism count: the isomorphisms of g onto itself."""
    if g.n > bound:
        raise ValueError(f"automorphism count limited to {bound} vertices")
    return sum(1 for _ in _isomorphisms(g, g))


def check_f4k4_structure(g: MembershipGraph) -> bool:
    """Level-4 F4 vertices have two non-zero (doubled +-4) coordinates and
    adjacency means exactly one shared coordinate with equal value."""
    vecs = g.vertices.vectors
    for row in vecs:
        nz = row[row != 0]
        if nz.size != 2 or not np.all(np.abs(nz) == 4):
            return False
    n = g.n
    for v in range(n):
        nbrs = set(g.neighbors(v).tolist())
        for w in range(n):
            if w == v:
                continue
            shared_support = np.flatnonzero((vecs[v] != 0) & (vecs[w] != 0))
            predicted = shared_support.size == 1 and bool(
                (vecs[v][shared_support] == vecs[w][shared_support]).all()
            )
            if predicted != (w in nbrs):
                return False
    return True
