"""Structural checks: scaling maps, the mod-8 norm constraint, degree
formula, Weyl automorphism action, and small-graph isomorphism with an
explicit bijection (partition refinement plus backtracking)."""

from __future__ import annotations

import numpy as np

from sosgraphs.clique import induced_bitrows
from sosgraphs.graph import (
    SOSGraph,
    edge_keys_membership,
    membership_graph,
    reflection_permutations,
    stats,
)
from sosgraphs.roots import RootSystem, encode_rows, key_index, key_offset
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
    keys = g.vertices.keys()
    exhaustive = n <= 1000
    report = {"ok": True, "mode": "exhaustive" if exhaustive else "sampled", "reflections": len(rs.simple_roots)}
    if not exhaustive:
        report["seed"] = seed
        report["sample_pairs"] = sample_pairs
    off = key_offset(g.vertices.dim)
    for idx, perm in enumerate(reflection_permutations(rs.simple_roots, g.vertices.vectors)):
        if exhaustive:
            adj = key_index(keys, keys[:, None] - keys[None, :] + off) >= 0
            ok = bool(np.array_equal(adj, adj[np.ix_(perm, perm)]))
        else:
            rng = np.random.default_rng(seed + idx)
            u = rng.integers(0, n, size=sample_pairs)
            v = rng.integers(0, n, size=sample_pairs)
            ok = bool(
                np.array_equal(
                    edge_keys_membership(g, u, v),
                    edge_keys_membership(g, perm[u], perm[v]),
                )
            )
        if not ok:
            report["ok"] = False
            report["failed_reflection"] = idx
            return report
    return report


def _adjacency_sets(g: SOSGraph) -> list[set[int]]:
    return [set(g.neighbors(v).tolist()) for v in range(g.n)]


def _triangle_counts(g: SOSGraph) -> list[int]:
    rows = induced_bitrows(g, np.arange(g.n))
    out = []
    for v in range(g.n):
        t = 0
        for w in g.neighbors(v).tolist():
            t += (rows[v] & rows[w]).bit_count()
        out.append(t // 2)
    return out, rows


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


def check_graph_isomorphism_small(
    g1: SOSGraph, g2: SOSGraph, bound: int = DEFAULT_ISO_BOUND
) -> tuple[bool, list[int] | None]:
    """Isomorphism decision with an explicit vertex bijection when true.

    Screens by vertex/edge counts, degree sequence and per-vertex triangle
    counts, refines colors to stability, then backtracks over color-
    compatible assignments in an order that keeps the mapped set connected
    where possible.
    """
    if max(g1.n, g2.n) > bound:
        raise ValueError(f"graphs exceed isomorphism search bound {bound}")
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False, None
    n = g1.n
    if n == 0:
        return True, []
    tri1, rows1 = _triangle_counts(g1)
    tri2, rows2 = _triangle_counts(g2)
    deg1 = g1.degrees().tolist()
    deg2 = g2.degrees().tolist()
    if sorted(zip(deg1, tri1)) != sorted(zip(deg2, tri2)):
        return False, None
    adj1 = _adjacency_sets(g1)
    adj2 = _adjacency_sets(g2)
    base = {pair: i for i, pair in enumerate(sorted(set(zip(deg1, tri1))))}
    col1 = _refine_colors([base[p] for p in zip(deg1, tri1)], adj1)
    col2 = _refine_colors([base[p] for p in zip(deg2, tri2)], adj2)
    if sorted(col1) != sorted(col2):
        return False, None

    by_color2: dict[int, list[int]] = {}
    for v, c in enumerate(col2):
        by_color2.setdefault(c, []).append(v)

    # order: rarest color first, then expanding along adjacency
    order: list[int] = []
    seen = [False] * n
    rarity = {c: sorted(col1).count(c) for c in set(col1)}
    pool = sorted(range(n), key=lambda v: (rarity[col1[v]], v))
    for root in pool:
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for w in sorted(adj1[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)

    mapping = [-1] * n
    used = [False] * n

    def backtrack(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in by_color2[col1[v]]:
            if used[w]:
                continue
            consistent = True
            for prev in order[:depth]:
                if (prev in adj1[v]) != (mapping[prev] in adj2[w]):
                    consistent = False
                    break
            if consistent:
                mapping[v] = w
                used[w] = True
                if backtrack(depth + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    if not backtrack(0):
        return False, None
    for v in range(n):
        for w in adj1[v]:
            if mapping[w] not in adj2[mapping[v]]:
                raise AssertionError("isomorphism verification failed")
    return True, mapping


def count_automorphisms_small(g: SOSGraph, bound: int = 100) -> int:
    """Exact automorphism count by exhaustive backtracking (tiny graphs)."""
    if g.n > bound:
        raise ValueError(f"automorphism count limited to {bound} vertices")
    n = g.n
    adj = _adjacency_sets(g)
    deg = g.degrees().tolist()
    tri, _ = _triangle_counts(g)
    base = {pair: i for i, pair in enumerate(sorted(set(zip(deg, tri))))}
    colors = _refine_colors([base[p] for p in zip(deg, tri)], adj)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    order = sorted(range(n), key=lambda v: (len(by_color[colors[v]]), v))
    mapping = [-1] * n
    used = [False] * n
    count = 0

    def backtrack(depth: int):
        nonlocal count
        if depth == n:
            count += 1
            return
        v = order[depth]
        for w in by_color[colors[v]]:
            if used[w]:
                continue
            ok = True
            for prev in order[:depth]:
                if (prev in adj[v]) != (mapping[prev] in adj[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                backtrack(depth + 1)
                mapping[v] = -1
                used[w] = False

    backtrack(0)
    return count


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
