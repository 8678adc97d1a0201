"""Structural checks: scaling maps, the mod-8 norm constraint, degree
formula, Weyl automorphism action, and small-graph isomorphism with an
explicit bijection (individualization-refinement)."""

from __future__ import annotations

import numpy as np

from sosgraphs.graph import SOSGraph, membership_graph, reflection_permutations, stats
from sosgraphs.roots import RootSystem, encode_rows
from sosgraphs.sos import vertex_set

EXHAUSTIVE_PAIR_LIMIT = 10_000_000
SAMPLE_PAIRS = 1_000_000
DEFAULT_ISO_BOUND = 5000


def check_scaling_isomorphism(rs: RootSystem, k_small: int, k_large: int) -> bool:
    """True iff the k_large vertex set is exactly twice the k_small one."""
    small = vertex_set(rs, k_small)
    large = vertex_set(rs, k_large)
    if len(small) != len(large):
        return False
    doubled = np.sort(encode_rows(2 * small.vectors.astype(np.int64)))
    return bool(np.array_equal(doubled, large.keys()))


def check_mod8(rs: RootSystem, k: int | None = None, seed: int = 0) -> dict:
    """Doubled squared distances divisible by 32 on the level-k vertex set.

    k defaults to the maximum SOS size (the rank for E7/E8; 4 for E6 where
    the top level is a scaled copy of level 1). Exhaustive below the pair
    limit, seeded sampling above.
    """
    if k is None:
        k = rs.max_sos_size
    vs = vertex_set(rs, k)
    vecs = vs.vectors.astype(np.int64)
    n = len(vs)
    pairs = n * (n - 1) // 2
    if pairs <= EXHAUSTIVE_PAIR_LIMIT:
        gram = vecs @ vecs.T
        norms = np.diag(gram)
        dist2 = norms[:, None] + norms[None, :] - 2 * gram
        ok = bool((dist2 % 32 == 0).all())
        return {"ok": ok, "mode": "exhaustive", "pairs": pairs}
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=SAMPLE_PAIRS)
    v = rng.integers(0, n, size=SAMPLE_PAIRS)
    diff = vecs[u] - vecs[v]
    ok = bool(((diff * diff).sum(axis=1) % 32 == 0).all())
    return {"ok": ok, "mode": "sampled", "pairs": SAMPLE_PAIRS, "seed": seed}


def check_degree_formula(rs: RootSystem) -> bool:
    """Level-1 graph is regular of degree 2(h - 2) for simply-laced systems."""
    s = stats(membership_graph(rs, 1))
    want = 2 * (rs.coxeter_number - 2)
    return s.is_regular and s.min_degree == want


def check_weyl_automorphism(
    g: SOSGraph, rs: RootSystem, sample_pairs: int = SAMPLE_PAIRS, seed: int = 0
) -> dict:
    """Each simple reflection permutes vertices and preserves (non-)adjacency.

    Exhaustive over all pairs when the graph has at most 1000 vertices,
    otherwise a seeded uniform sample of vertex pairs per reflection.
    sample_pairs must be at least 1, so a sampled pass always tests pairs.
    """
    if sample_pairs < 1:
        raise ValueError(f"sample_pairs must be >= 1, got {sample_pairs}")
    n = g.n
    vs = g.vertices
    exhaustive = n <= 1000
    report = {"ok": True, "mode": "exhaustive" if exhaustive else "sampled", "reflections": len(rs.simple_roots)}
    if exhaustive:
        u, v = np.arange(n)[:, None], np.arange(n)[None, :]
        adj = vs.adjacent(u, v)
    else:
        report["seed"] = seed
        report["sample_pairs"] = sample_pairs
    for idx, perm in enumerate(reflection_permutations(rs.simple_roots, vs.vectors)):
        if not exhaustive:
            rng = np.random.default_rng(seed + idx)
            u = rng.integers(0, n, size=sample_pairs)
            v = rng.integers(0, n, size=sample_pairs)
            adj = vs.adjacent(u, v)
        ok = bool(np.array_equal(adj, vs.adjacent(perm[u], perm[v])))
        if not ok:
            report["ok"] = False
            report["failed_reflection"] = idx
            return report
    return report


def _adjacency_sets(g: SOSGraph) -> list[set[int]]:
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


def _isomorphisms(g1: SOSGraph, g2: SOSGraph):
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
    g1: SOSGraph, g2: SOSGraph, bound: int = DEFAULT_ISO_BOUND
) -> tuple[bool, list[int] | None]:
    """Isomorphism decision with an explicit vertex bijection when true.

    Screens by vertex and edge counts, then takes the first isomorphism of
    the individualization-refinement search and verifies it edge by edge.
    """
    if max(g1.n, g2.n) > bound:
        raise ValueError(f"graphs exceed isomorphism search bound {bound}")
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
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


def count_automorphisms_small(g: SOSGraph, bound: int = 100) -> int:
    """Exact automorphism count: the isomorphisms of g onto itself."""
    if g.n > bound:
        raise ValueError(f"automorphism count limited to {bound} vertices")
    return sum(1 for _ in _isomorphisms(g, g))


def check_f4k4_structure(g: SOSGraph) -> bool:
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
