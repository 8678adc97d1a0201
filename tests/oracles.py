"""Independent reference paths the fast code is checked against.

strongly_orthogonal is the pairwise definition (neither sum nor
difference is a root) that sos.strong_orthogonality_graph is checked
against; negate, add and sub are its tuple helpers.
reflect, as_tuples, enumerate_sos and pairwise_is_sunflower are the plain
tuple-level definitions: one reflection, a vertex set as tuples, every
SOS listed depth first, and the sunflower test on pairwise support
intersections.
closure_orbit_labels closes each vertex under the generators with plain
Python tuples and a dict, with no keys and no searchsorted.
horner_keys is the key codec digit by digit, one dimension at a time.
reflect_rows builds the image rows of a reflection, vertex_permutation
looks images up, and lookup_permutations does both per root: the
reflections as permutations with every image row built.
all_pairs_so_graph looks up the sum and difference of every pair of roots.
positive_roots, stabilizer_action, restricted_labels and restricted_orbits
give Stab_W(v) as the reflections in every positive root orthogonal to v,
each image looked up, and its orbits as components of those permutations.
schreier_vector and bfs_transport carry rows along a breadth-first
Schreier vector.
pairwise_simple_roots finds a base by testing every pair of positive roots.
orbitwise_closure closes the seeds one W-orbit at a time, a breadth-first
search from each seed not yet reached, and labels the orbits as it goes.
pivot_clique_count counts the t-cliques of a bitset graph by pivoted
recursion (a leaf with p optional pivots adds C(p, t - h)).
single_level_census is the one-level orbit reduction: one vertex per
W-orbit, counting every (omega-1)-clique of its neighborhood directly.
two_level_census adds one neighbour per Stab_W(v)-orbit of N(v).
count_cliques_of_size and enumerate_max_cliques_through count and list
cliques inside one vertex subset, with no orbit reasoning.
pairwise_gamma builds the explicit edge list by testing every vertex pair
in blocks, with no orbit reasoning and no Schreier vector.
csr_stats reads the graph parameters off the explicit edge list.
csr_components is min-label propagation over the CSR adjacency of a
pair list, the reference union that roots.merge_labels is checked
against; csr_orbit_labels numbers the orbits of permutations with it.
propagated_components spreads the representatives' edges through the
simple reflections alone, round after round, to a fixed point.
dfs_vertex_sets lists every SOS depth first and counts the sums.
listed_seeds lists the (k-1)-SOS strongly orthogonal to one fixed root of
each length, and listed_vertex_set closes their sums under W and weights
each W-orbit by the seeds it holds: the vertex sets before they were
counted by candidate-set recursion. placeholder_vertex_set gives graph
shells over given rows a vertex set whose one generator cycles each orbit.
enumerated_sunflower_census lists every maximum clique through one vertex
per coordinate-permutation orbit and classifies each by its column profile.
sunflowers_through counts the sunflower maximum cliques through one vertex
from its own neighbourhood, induced pair by pair.
core_first_sunflowers counts them core first: the omega-cliques of the
graph of vertices containing a core K whose pairwise supports meet in K.
lookup_stabilizer_forest gives Stab(x) on a set of rows as the descent
forest of the base roots orthogonal to x, every image looked up by key.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from sosgraphs.clique import (
    bitrows,
    clique_number,
    collect_cliques_of_size,
    count_cliques_of_size_bitset,
    induced_bitrows,
    max_clique_size_bitset,
)
from sosgraphs.graph import GraphStats, SOSGraph
from sosgraphs.roots import (
    KEY_BASE,
    KEY_SHIFT,
    DescentForest,
    GroupActionError,
    RootSystemError,
    descent_forest,
    dot,
    encode_rows,
    key_index,
    key_offset,
    parse_label,
    reflection_permutations,
    weyl_closure,
)
from sosgraphs.sos import VertexSet, closed_vertex_set, strong_orthogonality_graph, vertex_set
from sosgraphs.sunflower import _support_masks, perm_orbit_labels


def negate(v) -> tuple:
    return tuple(-a for a in v)


def add(v, w) -> tuple:
    return tuple(a + b for a, b in zip(v, w))


def sub(v, w) -> tuple:
    return tuple(a - b for a, b in zip(v, w))


def strongly_orthogonal(rs, alpha, beta) -> bool:
    """True iff neither sum nor difference is a root.

    Antipodal and equal pairs are excluded: a strongly orthogonal subset
    consists of linearly independent roots, and {a, -a} sums to zero.
    """
    roots = frozenset(rs.roots)
    if alpha not in roots or beta not in roots:
        raise RootSystemError("strongly_orthogonal requires roots of the system")
    if alpha == beta or alpha == negate(beta):
        return False
    return add(alpha, beta) not in roots and sub(alpha, beta) not in roots


def reflect(alpha, v) -> tuple:
    """Image of v under the reflection through alpha's hyperplane.

    Exact for any vector in the root lattice (the Cartan coefficient is
    asserted integral).
    """
    coeff, rem = divmod(2 * dot(v, alpha), dot(alpha, alpha))
    if rem:
        raise RootSystemError(f"vector {v} not in the lattice of {alpha}")
    return tuple(a - coeff * b for a, b in zip(v, alpha))


def as_tuples(vertices) -> list[tuple[int, ...]]:
    """The rows of a vertex set as tuples of Python ints."""
    return [tuple(int(x) for x in row) for row in vertices.vectors]


def pairwise_is_sunflower(vectors) -> bool:
    """All pairwise support intersections equal and non-empty."""
    vecs = list(vectors)
    if len(vecs) < 2:
        raise ValueError("sunflower classification needs at least 2 vectors")
    supports = [frozenset(j for j, x in enumerate(v) if x != 0) for v in vecs]
    inters = {a & b for a, b in itertools.combinations(supports, 2)}
    return len(inters) == 1 and bool(next(iter(inters)))


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


def horner_keys(rows) -> np.ndarray:
    """The int64 key of each row of an (m, dim) array, by Horner's rule."""
    rows = np.asarray(rows, dtype=np.int64)
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(rows.shape[1]):
        keys *= KEY_BASE
        keys += rows[:, j] + KEY_SHIFT
    return keys


def reflect_rows(rows: np.ndarray, roots) -> np.ndarray:
    """Images of (m, dim) lattice rows under the reflection in each of
    roots, one product for all: a (len(roots), m, dim) int64 array.

    The Cartan coefficients 2<x, a>/<a, a> must be integers
    (RootSystemError otherwise), so the images are exact.
    """
    rows = np.asarray(rows, dtype=np.int64)
    a = np.asarray(roots, dtype=np.int64).reshape(-1, rows.shape[1])
    coeff, rem = np.divmod(2 * (a @ rows.T), (a * a).sum(axis=1)[:, None])
    if rem.any():
        raise RootSystemError("vector outside the root lattice")
    images = coeff[:, :, None] * a[:, None, :]
    return np.subtract(rows, images, out=images)


def vertex_permutation(keys: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Generators' actions as index permutations of a sorted key array.

    images holds each generator's image of the indexed rows, (m, dim) for
    one generator or (g, m, dim) for g; perm[..., i] is the position of
    images[..., i, :]. An image outside the set is a hard error, so an
    injective generator always yields a permutation.
    """
    pos = key_index(keys, encode_rows(images))
    if (pos < 0).any():
        raise GroupActionError("generator image escapes the vertex set; the set is not closed")
    return pos


def lookup_permutations(roots, rows) -> np.ndarray:
    """The reflections in roots as a (len(roots), n) int32 array of
    permutations of the lex-sorted rows: every image row built, encoded
    and looked up."""
    keys = encode_rows(np.asarray(rows))
    perms = np.empty((len(roots), len(keys)), dtype=np.int32)
    for i, alpha in enumerate(roots):
        perms[i] = vertex_permutation(keys, reflect_rows(rows, alpha)[0])
    return perms


def all_pairs_so_graph(rs) -> np.ndarray:
    """Strong orthogonality over rs.roots with alpha + beta and alpha - beta
    looked up for every pair of roots: a boolean adjacency matrix."""
    keys = encode_rows(np.asarray(rs.roots, dtype=np.int64))
    off = key_offset(rs.ambient_dim)
    sums = keys[:, None] + keys[None, :] - off
    diffs = keys[:, None] - keys[None, :] + off
    adj = (key_index(keys, sums) < 0) & (key_index(keys, diffs) < 0)
    adj &= (diffs != off) & (sums != off)  # beta == alpha, beta == -alpha
    return adj


def positive_roots(rs) -> np.ndarray:
    """The lex-positive roots of rs, the upper half of the sorted roots, as
    an (|R|/2, dim) int64 array."""
    return np.asarray(rs.roots[len(rs.roots) // 2 :], dtype=np.int64)


def stabilizer_action(g, v: int, nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The generators of Stab_W(v) acting on nb, as root rows and as
    permutations of nb (one row each): the reflections in every positive
    root orthogonal to vertex v (Steinberg), each image looked up by key.
    nb must be an invariant, ascending index set."""
    positive = positive_roots(parse_label(g.label))
    roots = positive[~(positive @ g.vertices.vectors[v].astype(np.int64)).astype(bool)]
    return roots, reflection_permutations(roots, g.vertices.vectors[nb], g.vertices.keys[nb])


def restricted_labels(perms, members: np.ndarray) -> np.ndarray:
    """Orbit id per position in the ascending index subset members, under
    the generator permutations restricted to it, numbered by lowest
    position: components of the permutations."""
    restricted = []
    if len(perms):
        local = np.full(perms[0].size, -1, dtype=np.int64)
        local[members] = np.arange(members.size)
        restricted = [local[perm[members]] for perm in perms]
        if any((perm < 0).any() for perm in restricted):
            raise GroupActionError("generator image escapes the index subset; it is not invariant")
    return csr_orbit_labels(restricted, members.size)


def restricted_orbits(perms, members: np.ndarray) -> tuple[list[int], list[int]]:
    """Representatives (lowest positions in members) and sizes of the
    orbits of the generator permutations on members, in order of
    representative."""
    labels = restricted_labels(perms, members)
    return np.unique(labels, return_index=True)[1].tolist(), np.bincount(labels).tolist()


def schreier_vector(perms, roots, n: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Breadth-first Schreier vector of the generator permutations, a
    sequence or a (g, n) array.

    A BFS from each root records, for every index x it reaches, its
    parent and the generator mapping the parent to it:
    perms[gen[x]][parent[x]] == x (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, 4.1). Roots keep parent and gen -1.
    Returns parent, gen and the BFS levels below the roots, in order.
    """
    perms = np.asarray(perms)
    parent = np.full(n, -1, dtype=np.int64)
    gen = np.full(n, -1, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    level = np.asarray(roots, dtype=np.int64)
    reached[level] = True
    levels = []
    while level.size:
        images = perms[:, level].ravel()
        fresh = np.flatnonzero(~reached[images])
        images, first = np.unique(images[fresh], return_index=True)
        first = fresh[first]
        reached[images] = True
        parent[images] = level[first % level.size]
        gen[images] = first // level.size
        level = images
        if level.size:
            levels.append(level)
    return parent, gen, levels


def bfs_transport(perms, reps, carried) -> np.ndarray:
    """Row x is g_x applied to the row of x's representative r, with
    g_x.r = x read off the breadth-first Schreier vector from reps; short
    rows are padded with r itself."""
    stacked = np.asarray(perms)
    n = stacked.shape[1]
    out = np.empty((n, max(map(len, carried), default=0)), dtype=np.int32)
    for r, row in zip(reps, carried):
        out[r, : len(row)] = row
        out[r, len(row) :] = r
    parent, gen, levels = schreier_vector(stacked, reps, n)
    for level in levels:
        out[level] = stacked[gen[level][:, None], out[parent[level]]]
    return out


def pairwise_simple_roots(roots) -> tuple[tuple[int, ...], ...]:
    """The lex-positive roots that are not a sum of two lex-positive roots,
    sorted, by testing every pair of tuples."""
    positive = {r for r in roots if r > tuple([0] * len(r))}
    return tuple(sorted(
        alpha for alpha in positive
        if not any(sub(alpha, beta) in positive for beta in positive if beta != alpha)
    ))


def orbitwise_closure(seeds, simple_roots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closure of the seed rows under the reflections in simple_roots:
    lex-sorted rows, their keys and an orbit id per row numbered by lowest
    row. Each orbit is a breadth-first search from its lowest seed not yet
    reached, and a new level is checked against the two before it.
    """
    seed_rows = np.asarray(seeds, dtype=np.int64)
    seed_keys, first = np.unique(encode_rows(seed_rows), return_index=True)
    seed_rows = seed_rows[first]
    reached = np.zeros(seed_keys.size, dtype=bool)
    rows, keys, sizes = [seed_rows[:0]], [seed_keys[:0]], []
    for start in range(seed_keys.size):
        if reached[start]:
            continue
        before = seed_keys[:0]
        level_rows, level_keys = seed_rows[start : start + 1], seed_keys[start : start + 1]
        sizes.append(0)
        while level_keys.size:
            rows.append(level_rows)
            keys.append(level_keys)
            sizes[-1] += level_keys.size
            reached |= key_index(level_keys, seed_keys) >= 0
            images = np.concatenate([reflect_rows(level_rows, [a])[0] for a in simple_roots])
            image_keys, first = np.unique(encode_rows(images), return_index=True)
            fresh = (key_index(before, image_keys) < 0) & (key_index(level_keys, image_keys) < 0)
            before = level_keys
            level_rows, level_keys = images[first[fresh]], image_keys[fresh]
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    orbit = np.repeat(np.arange(len(sizes)), sizes)[order]
    lowest = np.unique(orbit, return_index=True)[1]
    orbit = np.unique(lowest[orbit], return_inverse=True)[1].astype(np.int32)
    return np.concatenate(rows)[order], keys[order], orbit


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


def pivot_clique_count(rows: list[int], cand: int, t: int) -> int:
    """Count cliques of size exactly t via pivoted recursion.

    Held vertices are definite members, pivot vertices are optional; a leaf
    with h held and p pivots contributes C(p, t - h). Subtrees that cannot
    reach size t are pruned on the candidate popcount.
    """
    if t == 0:
        return 1
    total = 0

    def rec(sub: int, held: int, pivots: int):
        nonlocal total
        if held > t or held + pivots + sub.bit_count() < t:
            return
        if sub == 0:
            total += comb(pivots, t - held)
            return
        c = sub
        best_u = -1
        best_n = -1
        best_c = 0
        while c:
            b = c & -c
            u = b.bit_length() - 1
            c ^= b
            cu = sub & rows[u]
            nu = cu.bit_count()
            if nu > best_n:
                best_n, best_u, best_c = nu, u, cu
        rec(best_c, held, pivots + 1)
        rest = sub & ~rows[best_u] & ~(1 << best_u)
        cur = sub
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            cur ^= b
            rec(cur & rows[v], held + 1, pivots)

    rec(cand, 0, 0)
    return total


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
        (size, 1 if omega == 1 else pivot_clique_count(rows, full, omega - 1))
        for size, rows, full in hoods
    )
    return omega, per_orbit


def two_level_census(g) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(omega, per-orbit (orbit size, maximum cliques through a vertex))
    from one vertex v per W-orbit, then one neighbour w per Stab(v)-orbit
    of N(v), counting every (omega-2)-clique of N(v) & N(w) directly."""
    if g.n == 0:
        return 0, ()
    hoods = []
    for size, v in zip(g.orbit_sizes(), g.orbit_representatives()):
        nb = g.neighbors(v)
        perms = stabilizer_action(g, v, nb)[1]
        hoods.append((size, induced_bitrows(g, nb), *restricted_orbits(perms, np.arange(nb.size))))
    omega = 1
    for _, rows, reps, _ in hoods:
        for w in reps:
            omega = max(omega, 2 + max_clique_size_bitset(rows, rows[w], max(omega - 2, 0)))
    per_orbit = []
    for size, rows, reps, sizes in hoods:
        if omega == 1:
            per_orbit.append((size, 1))
            continue
        weighted = sum(
            n_o * pivot_clique_count(rows, rows[w], omega - 2) for w, n_o in zip(reps, sizes)
        )
        per_orbit.append((size, _exact(weighted, omega - 1)))
    return omega, tuple(per_orbit)


def count_cliques_of_size(g, vertex_subset, t: int) -> int:
    """Exact number of t-cliques in the subgraph induced on vertex_subset."""
    if t < 1:
        raise ValueError("t must be >= 1")
    ids = np.asarray(vertex_subset)
    if t == 1:
        return int(ids.size)
    return pivot_clique_count(induced_bitrows(g, ids), (1 << ids.size) - 1, t)


def enumerate_max_cliques_through(g, v: int, omega: int):
    """Yield each maximum clique containing v as a sorted global index tuple."""
    if omega == 1:
        yield (v,)
        return
    nb = g.neighbors(v)
    rows = induced_bitrows(g, nb)
    for local in collect_cliques_of_size(rows, (1 << nb.size) - 1, omega - 1):
        yield tuple(sorted([v] + [int(nb[i]) for i in local]))


def _blocks(n: int, size: int):
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _block_edges(keys: np.ndarray, off: int, i0: int, i1: int, block_size: int):
    """All edges (u, v) with u in [i0, i1), v > u, as one (u, v) chunk pair."""
    n = keys.size
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ki = keys[i0:i1]
    for j0, j1 in _blocks(n, block_size):
        if j1 <= i0:
            continue
        diff = ki[:, None] - keys[None, j0:j1] + off
        r, c = np.nonzero(key_index(keys, diff) >= 0)
        u = r.astype(np.int64) + i0
        v = c.astype(np.int64) + j0
        keep = v > u
        us.append(u[keep].astype(np.int32))
        vs.append(v[keep].astype(np.int32))
    if not us:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    # j-blocks restart u; re-sort so chunks are u-ascending with v ascending per u
    order = np.argsort(u, kind="stable")
    return u[order], v[order]


def _fill_rows(indices: np.ndarray, cursor: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Scatter dst into CSR rows; src must be sorted (dst sorted within src)."""
    if src.size == 0:
        return
    uniq, starts, counts = np.unique(src, return_index=True, return_counts=True)
    ranks = np.arange(src.size, dtype=np.int64) - np.repeat(starts, counts)
    indices[cursor[src] + ranks] = dst
    cursor[uniq] += counts


def _assemble_csr(n: int, chunks: list) -> tuple[np.ndarray, np.ndarray]:
    """Two passes over (u, v) chunks; emits sorted neighbor lists.

    Relies on the block generation order: within each chunk u is ascending
    with v ascending per u, reversed edges land in already-sorted order
    when applied before forward ones.
    """
    deg = np.zeros(n, dtype=np.int64)
    for u, v in chunks:
        deg += np.bincount(u, minlength=n)
        deg += np.bincount(v, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    cursor = indptr[:-1].copy()
    for u, v in chunks:
        order = np.argsort(v, kind="stable")
        _fill_rows(indices, cursor, v[order], u[order])
        _fill_rows(indices, cursor, u, v)
    if not np.array_equal(cursor, indptr[1:]):
        raise AssertionError("CSR fill incomplete; edge chunks out of order")
    return indptr, indices


def pairwise_gamma(rs, k: int, block_size: int = 4096) -> SOSGraph:
    """The gamma graph with its edge list from every vertex pair.

    Edges are generated in (i-block, j-block) batches held in memory; the
    result is independent of block size.
    """
    vs = vertex_set(rs, k)
    n = len(vs)
    keys = vs.keys
    off = key_offset(rs.ambient_dim)
    if n and not np.array_equal(np.sort(encode_rows(-vs.vectors.astype(np.int64))), keys):
        raise ValueError("vertex set not closed under negation; adjacency would not be symmetric")
    chunks = [_block_edges(keys, off, i0, i1, block_size) for i0, i1 in _blocks(n, block_size)]
    indptr, indices = _assemble_csr(n, chunks)
    return SOSGraph(vertices=vs, indptr=indptr, indices=indices)


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


def csr_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest index of each vertex's component in the graph of pairs (a, b),
    by min-label propagation over its CSR adjacency: each round takes the
    least label over every row's neighbours, then pointer-jumps, until no
    label changes."""
    src = np.concatenate([a, b]).astype(np.int64)
    dst = np.concatenate([b, a]).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = dst[np.argsort(src, kind="stable")]
    labels = np.arange(n, dtype=np.int64)
    if indices.size == 0:
        return labels
    nonempty = np.diff(indptr) > 0
    offsets = indptr[:-1][nonempty]
    while True:
        updated = labels.copy()
        updated[nonempty] = np.minimum(labels[nonempty],
                                       np.minimum.reduceat(labels[indices], offsets))
        while not np.array_equal(jumped := updated[updated], updated):
            updated = jumped
        if np.array_equal(updated, labels):
            return labels
        labels = updated


def csr_orbit_labels(perms, n: int) -> np.ndarray:
    """Orbit id per index under the generator permutations, numbered by
    lowest index: the components of the pairs (x, s.x), by `csr_components`."""
    every = np.arange(n, dtype=np.int64)
    lowest = csr_components(n, np.tile(every, len(perms)), np.concatenate([every[:0], *perms]))
    return np.unique(lowest, return_inverse=True)[1].astype(np.int32)


def propagated_components(g, reps: list[int], hoods) -> np.ndarray:
    """Lowest index of each vertex's component, by propagation alone.

    Starting from the representatives' edges, x ~ L[x] is carried to
    s.x ~ s.L[x] for each simple reflection s until the labels L stop
    changing (up to 61 rounds on the census rows).
    """
    n = g.n
    perms = lookup_permutations(parse_label(g.label).simple_roots, g.vertices.vectors)
    rep_src = np.repeat(np.asarray(reps, dtype=np.int64), [h.size for h in hoods])
    every = np.arange(n, dtype=np.int64)
    labels = every
    while True:
        fresh = csr_components(
            n,
            np.concatenate([rep_src, every, *perms]),
            np.concatenate([*hoods, labels, *(perm[labels] for perm in perms)]),
        )
        if np.array_equal(fresh, labels):
            return labels
        labels = fresh


# Compact dedup buffers once this many raw keys accumulate (E8 to depth 8:
# about 280 MB peak RSS, against 700 MB at 4 million).
_COMPACT_AT = 1_000_000
# Vectorize child recording when a candidate set has at least this many bits.
_VEC_MIN = 16


class _DedupSink:
    """Accumulates int64 keys, compacting to (sorted keys, counts) chunks."""

    def __init__(self):
        self.scalars: list[int] = []
        self.arrays: list[np.ndarray] = []
        self.keys = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)
        self.pending = 0

    def push_array(self, arr: np.ndarray):
        self.arrays.append(arr)
        self.pending += arr.size
        if self.pending >= _COMPACT_AT:
            self.compact()

    def compact(self):
        if self.scalars:
            self.arrays.append(np.array(self.scalars, dtype=np.int64))
            self.scalars.clear()
        if not self.arrays:
            return
        fresh, fresh_counts = np.unique(np.concatenate(self.arrays), return_counts=True)
        self.arrays.clear()
        self.pending = 0
        if self.keys.size == 0:
            self.keys, self.counts = fresh, fresh_counts
            return
        merged = np.concatenate([self.keys, fresh])
        weights = np.concatenate([self.counts, fresh_counts])
        order = np.argsort(merged, kind="stable")
        merged, weights = merged[order], weights[order]
        uniq_mask = np.empty(merged.size, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(merged[1:], merged[:-1], out=uniq_mask[1:])
        starts = np.flatnonzero(uniq_mask)
        sums = np.add.reduceat(weights, starts)
        self.keys, self.counts = merged[starts], sums

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        self.compact()
        return self.keys, self.counts


@lru_cache(maxsize=None)
def _pairwise_so_bitrows(rs) -> tuple[int, ...]:
    n = len(rs.roots)
    rows = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if strongly_orthogonal(rs, rs.roots[i], rs.roots[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def enumerate_sos(rs, k: int):
    """Yield every k-element SOS exactly once, lexicographically.

    Each item is a tuple of k root vectors in ascending lex order. The
    stream is empty when k exceeds the maximum SOS size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > rs.max_sos_size:
        return
    rows = _pairwise_so_bitrows(rs)
    roots = rs.roots
    n = len(roots)
    above = [(~((1 << (i + 1)) - 1)) & ((1 << n) - 1) for i in range(n)]

    def extend(chosen: list[int], cand: int):
        if len(chosen) == k:
            yield tuple(roots[i] for i in chosen)
            return
        c = cand
        while c:
            b = c & -c
            j = b.bit_length() - 1
            c ^= b
            chosen.append(j)
            yield from extend(chosen, cand & rows[j] & above[j])
            chosen.pop()

    yield from extend([], (1 << n) - 1)


def _bit_indices(x: int, nbytes: int) -> np.ndarray:
    raw = x.to_bytes(nbytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.flatnonzero(bits)


def _decode_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    rows = np.empty((keys.size, dim), dtype=np.int32)
    rem = keys.copy()
    for j in range(dim - 1, -1, -1):
        rem, digit = np.divmod(rem, KEY_BASE)
        rows[:, j] = digit - KEY_SHIFT
    return rows


class Sums(NamedTuple):
    """Deduplicated SOS sums as lex-sorted int32 rows, and the number of
    SOS behind each: a vertex set with no group action."""

    vectors: np.ndarray
    multiplicity: np.ndarray


@lru_cache(maxsize=None)
def dfs_vertex_sets(rs, kmax: int) -> dict[int, Sums]:
    """Every SOS of size <= kmax listed depth first, summed and counted.

    The whole-SOS enumeration the vertex sets were once built by: one pass
    records the sum keys at every depth, deduplicated through int64 keys
    and chunk-wise compaction. The candidate bitsets come from pairwise
    strongly_orthogonal tests.
    """
    rows = _pairwise_so_bitrows(rs)
    n = len(rs.roots)
    dim = rs.ambient_dim
    nbytes = (n + 7) // 8
    root_keys = encode_rows(np.asarray(rs.roots, dtype=np.int64)).tolist()
    root_keys_arr = np.array(root_keys, dtype=np.int64)
    above = [(~((1 << (i + 1)) - 1)) & ((1 << n) - 1) for i in range(n)]
    adj_above = [rows[i] & above[i] for i in range(n)]
    sinks = {d: _DedupSink() for d in range(1, kmax + 1)}

    def dfs(cand: int, ksum: int, depth: int):
        child_depth = depth + 1
        sink = sinks[child_depth]
        if cand.bit_count() >= _VEC_MIN:
            idx = _bit_indices(cand, nbytes)
            sink.push_array(root_keys_arr[idx] + ksum)
            if child_depth < kmax:
                for j in idx.tolist():
                    sub = cand & adj_above[j]
                    if sub:
                        dfs(sub, ksum + root_keys[j], child_depth)
        else:
            buf = sink.scalars
            c = cand
            if child_depth < kmax:
                while c:
                    b = c & -c
                    j = b.bit_length() - 1
                    c ^= b
                    buf.append(ksum + root_keys[j])
                    sub = cand & adj_above[j]
                    if sub:
                        dfs(sub, ksum + root_keys[j], child_depth)
            else:
                while c:
                    b = c & -c
                    j = b.bit_length() - 1
                    c ^= b
                    buf.append(ksum + root_keys[j])
            if len(buf) >= _COMPACT_AT:
                sink.compact()

    if kmax >= 1:
        dfs((1 << n) - 1, 0, 0)

    out = {}
    off = key_offset(dim)
    for d in range(1, kmax + 1):
        keys, counts = sinks[d].finalize()
        vertex_keys = keys - (d - 1) * off
        vectors = _decode_keys(vertex_keys, dim)
        out[d] = Sums(vectors, counts)
    return out


def listed_seeds(rs, k: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per root length: (|W theta|, seed rows, c_theta) for one fixed root
    theta, the lex-largest of that length.

    The seeds are the distinct sums theta + sum(T) over the (k-1)-SOS T
    among the roots strongly orthogonal to theta, and c_theta counts the T
    behind each. T grows one root at a time in lex order through boolean
    candidate rows, so each T is listed once.
    """
    roots = np.asarray(rs.roots, dtype=np.int64)
    adj = strong_orthogonality_graph(rs)
    norms = (roots * roots).sum(axis=1)
    out = []
    for norm in sorted(set(norms.tolist())):
        of_length = np.flatnonzero(norms == norm)
        theta = of_length[-1]
        partners = np.flatnonzero(adj[theta])
        later = np.triu(adj[np.ix_(partners, partners)], 1)
        sums = roots[theta : theta + 1]
        cand = np.ones((1, partners.size), dtype=bool)
        for depth in range(k - 1, 0, -1):
            state, j = np.nonzero(cand)
            sums = sums[state] + roots[partners[j]]
            if depth > 1:  # the last step needs no candidates
                cand = cand[state]
                cand &= later[j]
        _, first, counts = np.unique(encode_rows(sums), return_index=True, return_counts=True)
        out.append((of_length.size, sums[first], counts))
    return out


def listed_vertex_set(rs, k: int) -> VertexSet:
    """V_k as the W-orbit closure of the listed seeds, with
    k |O| mult(O) = sum over theta of |W theta| sum_{y in O} c_theta(y)
    per W-orbit O; a division that is not exact raises ArithmeticError."""
    seeds = listed_seeds(rs, k)
    rows, keys, orbit, cartan = weyl_closure(
        np.concatenate([s for _, s, _ in seeds]), rs.simple_roots
    )
    orbit_sizes = np.bincount(orbit)
    weighted = np.zeros(orbit_sizes.size, dtype=np.int64)
    for length_size, seed_rows, counts in seeds:
        np.add.at(weighted, orbit[key_index(keys, encode_rows(seed_rows))], length_size * counts)
    mult, rem = np.divmod(weighted, k * orbit_sizes)
    if rem.any():
        raise ArithmeticError(f"{rs.label} k={k}: seed weights not divisible by k |O|")
    return closed_vertex_set(rs.label, k, rows.astype(np.int32), mult[orbit], orbit, keys, cartan)


def placeholder_vertex_set(label: str, vectors: np.ndarray, orbit: np.ndarray) -> VertexSet:
    """A VertexSet over given rows and orbit ids, for graph shells whose
    edges are given. Its action is one generator that moves each index to
    the next index of its orbit and the highest back to the lowest, paired
    negatively everywhere but at the highest: its descent forest has one
    root per orbit, the highest index, as a closed vertex set's has."""
    n = len(vectors)
    perm = np.arange(n, dtype=np.int32)
    pairing = np.zeros((n, 1), dtype=np.int16)
    for o in np.unique(orbit):
        members = np.flatnonzero(orbit == o)
        perm[members] = np.roll(members, -1)
        pairing[members[:-1]] = -1
    return VertexSet(label, 1, vectors, np.ones(n, dtype=np.int64), orbit,
                     encode_rows(vectors), descent_forest(perm[None, :], pairing))


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


def lookup_stabilizer_forest(base: np.ndarray, x_row, rows: np.ndarray, keys) -> DescentForest:
    """Stab(x) acting on the key-sorted invariant rows, for x a dominant or
    lex-least vertex of its orbit under the reflections in base: the
    descent forest of the roots of base orthogonal to x, their reflections
    looked up over the rows.

    Either way x or -x pairs with no base root negatively, so its
    stabilizer is the parabolic subgroup generated by those simple
    reflections (Humphreys, *Reflection Groups and Coxeter Groups*, 1.12).
    An image outside the rows raises GroupActionError.
    """
    fixing = base[base @ x_row == 0]
    return descent_forest(reflection_permutations(fixing, rows, keys), rows @ fixing.T)


def sunflowers_through(g, v: int, omega: int) -> int:
    """Number of sunflower maximum cliques (of size omega >= 2) containing v."""
    nb = g.neighbors(v)
    masks = _support_masks(g.vertices.vectors[np.append(nb, v)])
    cores = masks[:-1] & masks[-1]
    count = 0
    for core in np.unique(cores[cores != 0]).tolist():
        part = cores == core
        petals = masks[:-1][part] & ~core
        disjoint = bitrows((petals[:, None] & petals[None, :]) == 0)
        rows = [a & b for a, b in zip(induced_bitrows(g, nb[part]), disjoint)]
        count += count_cliques_of_size_bitset(rows, (1 << len(rows)) - 1, omega - 1)
    return count


def _signed_permutation_reflections(rs) -> list:
    """Every positive root whose reflection is a signed coordinate
    permutation: one non-zero coordinate, or two of equal absolute value."""
    return [alpha for alpha in rs.roots[len(rs.roots) // 2 :]
            if len({abs(x) for x in alpha if x}) == 1 and sum(1 for x in alpha if x) <= 2]


def core_first_sunflowers(g, rs) -> int:
    """Sunflower maximum cliques counted core first, with no petal masks.

    A family is a sunflower with core K exactly when every pairwise
    support intersection is K, so the sunflower omega-cliques with core K
    are the omega-cliques of G_K: the vertices whose support contains K,
    with a ~ b when they are adjacent and supp(a) & supp(b) == K. The
    subsets K are grouped by the coordinate permutations the signed
    permutation reflections induce, and G_K is counted at one vertex per
    orbit of the reflections that fix K setwise, weighted by orbit size and
    divided exactly by omega; every count is `pivot_clique_count`.
    """
    omega = clique_number(g)
    if omega < 2:
        return 0
    dim = rs.ambient_dim
    reflections = _signed_permutation_reflections(rs)
    units = [tuple(2 * (i == j) for j in range(dim)) for i in range(dim)]
    coordinate_maps = [
        [next(j for j, x in enumerate(reflect(alpha, unit)) if x) for unit in units]
        for alpha in reflections
    ]

    def image(perm, core: int) -> int:
        return sum(1 << perm[i] for i in range(dim) if core >> i & 1)

    vectors, keys = g.vertices.vectors, g.vertices.keys
    masks = _support_masks(vectors)
    seen: set = set()
    total = 0
    for core in range(1, 1 << dim):
        if core in seen:
            continue
        orbit = closure([core], [lambda c, p=p: image(p, c) for p in coordinate_maps])
        seen |= orbit
        members = np.flatnonzero((masks & core) == core)
        if members.size < omega:
            continue
        fixing = [a for a, p in zip(reflections, coordinate_maps) if image(p, core) == core]
        labels = csr_orbit_labels(
            reflection_permutations(fixing, vectors[members], keys[members]), members.size
        )
        weighted = 0
        for size, pos in zip(np.bincount(labels).tolist(), np.unique(labels, return_index=True)[1]):
            v = members[pos]
            nb = g.neighbors(v)
            nb = nb[(masks[nb] & masks[v]) == core]
            meets = masks[nb][:, None] & masks[nb][None, :]
            rows = [a & b for a, b in zip(induced_bitrows(g, nb), bitrows(meets == core))]
            weighted += size * pivot_clique_count(rows, (1 << nb.size) - 1, omega - 1)
        total += len(orbit) * _exact(weighted, omega)
    return total
