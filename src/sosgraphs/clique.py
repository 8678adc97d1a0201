"""Clique number, clique counting and the orbit-weighted maximum-clique census.

The census repeats one step. Vertices of one Weyl orbit lie in equally
many maximum cliques, so only one representative v per W-orbit is
solved, weighted by orbit size; the weighted sum divides exactly by
omega. v is the orbit's dominant vertex, and then Stab_W(v) is the
parabolic subgroup W_J generated by the simple reflections fixing v
(Humphreys, *Reflection Groups and Coxeter Groups*, 1.12); it acts by
graph automorphisms on N(v). So below v the same step recurses on a
candidate set S (first N(v), with J as above): one representative u per
W_J-orbit O on S, its J-dominant vertex, then S & N(u) under the
stabilizer of u in W_J, which is W_J' for J' the j in J with
<u, a_j> = 0, down to DEPTH levels, where

    omega(S) = 1 + max_O omega(S & N(u_O))
    #t-cliques of S = sum_O |O| * #(t-1)-cliques of S & N(u_O) / t

and every division is exact too. Counting cliques of size exactly
omega-1 (rather than maximal ones) stays correct when maximal clique
sizes are mixed.

Every level takes its stabilizer by one step, `DescentForest.stabilizer`:
the generators orthogonal to the fixed vertex, as permutations of the
candidate set with their pairings, restricted from the forest of the
level above. At v it restricts W's forest, which the vertex set keeps,
to N(v) (`Neighborhood`); at u it restricts W_J's on N(v) to S & N(u).
The orbits are the trees of the forest it returns, with no lookup.
Adjacency rows are computed at one w per Stab_W(v)-orbit and carried to
the rest of N(v) down its forest (`DescentForest.transport`),
N(h.w) = h.N(w) for h fixing v.

All subgraph work runs on Python-int bitset rows: candidate-set
intersection is one AND, so branch-and-bound, counting and enumeration
share the same representation. The counter lists each clique once, in
ascending index order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from sosgraphs.graph import MembershipGraph
from sosgraphs.roots import DescentForest, exact_quotient

DEFAULT_BRUTE_FORCE_BOUND = 750
_ENUM_BATCH = 65_536
# Orbit levels below W. A third (W_{v,w,u}) gave the same counts but took
# the E7 and E8 k=1..7 censuses from 0.48-0.57 s to 0.69-0.79 s on carried
# rows (2-core Xeon, Python 3.11): its orbit labelling costs more than the
# counting it saves.
DEPTH = 2


@dataclass(frozen=True)
class CliqueCensus:
    """Maximum-clique totals assembled from per-orbit per-vertex counts."""

    omega: int
    per_orbit: tuple[tuple[int, int], ...]  # (orbit size, max cliques through a vertex)
    total_maximum_cliques: int
    # The carried neighborhoods the counts were read from, one per W-orbit.
    neighborhoods: tuple = field(default=(), repr=False, compare=False)


def induced_bitrows(g: MembershipGraph, vertex_ids: np.ndarray) -> list[int]:
    """Bitset adjacency rows of the subgraph induced on vertex_ids, every
    pair looked up; the censuses carry theirs (`carried_neighborhoods`)."""
    ids = np.asarray(vertex_ids, dtype=np.int64)
    d = ids.size
    if d == 0:
        return []
    adj = g.vertices.adjacent(ids[:, None], ids[None, :])
    np.fill_diagonal(adj, False)
    return bitrows(adj)


def bitrows(adj: np.ndarray) -> list[int]:
    """Python-int rows of a square boolean matrix: bit j of row i is adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _color_bound_order(cand: int, rows: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of cand; vertices listed in nondecreasing color."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            avail ^= b
            avail &= ~rows[v]
            rest ^= b
            order.append(v)
            bounds.append(color)
    return order, bounds


def max_clique_size_bitset(rows: list[int], cand: int, lower: int = 0) -> int:
    """Exact maximum clique size via branch-and-bound with coloring bound."""
    best = lower

    def expand(sub: int, size: int):
        nonlocal best
        order, bounds = _color_bound_order(sub, rows)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            nxt = sub & rows[v]
            if nxt:
                expand(nxt, size + 1)
            elif size + 1 > best:
                best = size + 1
            sub &= ~(1 << v)

    if cand:
        expand(cand, 0)
    return best


def count_cliques_of_size_bitset(rows: list[int], cand: int, t: int) -> int:
    """Count cliques of size exactly t, each once in ascending index order.

    Each clique is counted from its lowest vertex b, among the later
    candidates adjacent to b. Branches with fewer than need - 1 such
    candidates are pruned, and at need = 2 their popcount is the count.
    """
    if t == 0:
        return 1
    if t == 1:
        return cand.bit_count()

    def rec(sub: int, need: int) -> int:
        total = 0
        while sub:
            b = sub & -sub
            sub ^= b
            nxt = sub & rows[b.bit_length() - 1]
            if need == 2:
                total += nxt.bit_count()
            elif nxt.bit_count() >= need - 1:
                total += rec(nxt, need - 1)
        return total

    return rec(cand, t)


def collect_cliques_of_size(rows: list[int], cand: int, t: int) -> np.ndarray:
    """All t-cliques as a (count, t) int32 array, ascending index order."""
    if t == 0:
        return np.empty((1, 0), dtype=np.int32)
    buf: list[int] = []
    chunks: list[np.ndarray] = []
    chosen: list[int] = []

    def flush():
        chunks.append(np.array(buf, dtype=np.int32).reshape(-1, t))
        buf.clear()

    def rec(sub: int, need: int):
        if need == 1:
            c = sub
            while c:
                b = c & -c
                buf.extend(chosen)
                buf.append(b.bit_length() - 1)
                c ^= b
            if len(buf) >= _ENUM_BATCH * t:
                flush()
            return
        c = sub
        while c:
            b = c & -c
            v = b.bit_length() - 1
            c ^= b
            nxt = sub & rows[v] & ~((b << 1) - 1)
            if nxt.bit_count() >= need - 1:
                chosen.append(v)
                rec(nxt, need - 1)
                chosen.pop()

    rec(cand, t)
    if buf:
        flush()
    if not chunks:
        return np.empty((0, t), dtype=np.int32)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def enumerate_maximal_cliques(rows: list[int], cand: int):
    """Yield every maximal clique as a sorted index tuple (Bron-Kerbosch)."""
    chosen: list[int] = []

    def rec(p: int, x: int):
        if p == 0:
            if x == 0:
                yield tuple(chosen)
            return
        both = p | x
        c = both
        best_u = -1
        best_n = -1
        while c:
            b = c & -c
            u = b.bit_length() - 1
            c ^= b
            nu = (p & rows[u]).bit_count()
            if nu > best_n:
                best_n, best_u = nu, u
        todo = p & ~rows[best_u]
        while todo:
            b = todo & -todo
            v = b.bit_length() - 1
            todo ^= b
            chosen.append(v)
            yield from rec(p & rows[v], x & rows[v])
            chosen.pop()
            p ^= b
            x |= b

    if cand:
        yield from rec(cand, 0)


def maximal_clique_size_counts(rows: list[int], cand: int) -> Counter:
    """Counts of maximal cliques by size."""
    return Counter(map(len, enumerate_maximal_cliques(rows, cand)))


def _full_mask(count: int) -> int:
    return (1 << count) - 1


def _members(mask: int) -> np.ndarray:
    """Indices of the set bits of mask, ascending."""
    packed = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little"))


@dataclass(frozen=True, eq=False)
class Neighborhood:
    """N(v) at a dominant W-orbit representative v, with the action of
    Stab_W(v) = W_J on it.

    members lists N(v) ascending. forest is the action of W_J on the
    positions in members, W's forest restricted (`DescentForest.stabilizer`):
    its perms are the simple reflections in J, its pairing[x, i] the
    Cartan integer <members[x], a_j^v> for the i-th j in J, and its roots
    (J-dominant) and sizes are the Stab_W(v)-orbits. adjacency (boolean)
    and rows (bitsets) are the induced graph, in the order of members.
    """

    orbit_size: int
    members: np.ndarray
    forest: DescentForest
    adjacency: np.ndarray
    rows: list[int]


def carried_neighborhoods(g: MembershipGraph):
    """One Neighborhood per W-orbit, in orbit order.

    Adjacency rows are computed at one w per Stab_W(v)-orbit, its
    J-dominant vertex, and carried to the rest of N(v) down the descent
    forest of Stab_W(v) (`DescentForest.transport`), since N(h.w) = h.N(w)
    for h fixing v.
    """
    for size, v in zip(g.orbit_sizes(), g.orbit_representatives()):
        nb = g.neighbors(v)
        local = g.vertices.forest.stabilizer(v, nb)
        reps = local.roots
        adjacency = g.vertices.adjacent(nb[reps][:, None], nb[None, :])
        if reps.size < nb.size:
            carried = local.transport(reps, [np.flatnonzero(row) for row in adjacency])
            adjacency = np.zeros((nb.size, nb.size), dtype=bool)
            adjacency[np.arange(nb.size)[:, None], carried] = True
            np.fill_diagonal(adjacency, False)  # the padding of short rows
        yield Neighborhood(size, nb, local, adjacency, bitrows(adjacency))


def _orbit_tree(hood: Neighborhood, forest: DescentForest, ids: np.ndarray, mask: int, depth: int):
    """One (|O|, child) per orbit O of a stabilizer on the candidate set S
    over hood.members, given as its ascending positions ids and as a mask.
    forest is the stabilizer's action on the positions in ids; its roots
    are the dominant vertices u of the orbits. The child is S & N(u) at
    depth 1, and above that its own tree under Stab(u), which the
    generators orthogonal to u generate (`DescentForest.stabilizer`)."""
    tree = []
    for u, n_o in zip(forest.roots.tolist(), forest.sizes().tolist()):
        child = mask & hood.rows[ids[u]]
        if depth > 1:
            below = _members(child)
            local = forest.stabilizer(u, np.searchsorted(ids, below))
            child = _orbit_tree(hood, local, below, child, depth - 1)
        tree.append((n_o, child))
    return tree


def _omega(rows: list[int], tree, lower: int) -> int:
    """omega(S) = 1 + max over the children of omega(S & N(u)), or lower
    when that is larger; lower is passed down one level at a time."""
    if isinstance(tree, int):
        return max_clique_size_bitset(rows, tree, lower)
    best = lower
    for _, child in tree:
        best = max(best, 1 + _omega(rows, child, max(best - 1, 0)))
    return best


def _count(rows: list[int], tree, t: int, level: int = 1) -> int:
    """#t-cliques(S) = sum_O |O| * #(t-1)-cliques(S & N(u_O)) / t, exactly.

    level counts the fixed vertices (v, w, u, ...), which the error names.
    """
    if isinstance(tree, int):
        return count_cliques_of_size_bitset(rows, tree, t)
    if t == 0:
        return 1
    weighted = sum(n_o * _count(rows, child, t - 1, level + 1) for n_o, child in tree)
    common = " & ".join(f"N({x})" for x in "vwu"[:level])
    return exact_quotient(weighted, t, f"neighborhood clique count of {common}")


def _clique_number(trees) -> int:
    """omega = 1 + max_v omega(N(v)), the lower bound carried across the v."""
    best = 1
    for rows, tree in trees:
        best = max(best, 1 + _omega(rows, tree, best - 1))
    return best


def _trees(hoods):
    """(rows, orbit tree of N(v) under Stab(v), DEPTH levels) per neighborhood."""
    for hood in hoods:
        ids, full = np.arange(hood.members.size), _full_mask(hood.members.size)
        yield hood.rows, _orbit_tree(hood, hood.forest, ids, full, DEPTH)


def clique_number(g: MembershipGraph) -> int:
    """Exact clique number; 1 for edgeless graphs, 0 for the empty graph.

    A maximum clique meets every W-orbit through some vertex v, and at
    each level below it every orbit of the pointwise stabilizer of the
    vertices fixed so far, so one representative per orbit suffices.
    """
    if g.n == 0:
        return 0
    return _clique_number(_trees(carried_neighborhoods(g)))


def count_maximum_cliques(g: MembershipGraph) -> CliqueCensus:
    """Orbit-weighted maximum-clique total with exact divisibility.

    omega and the counts share one carried N(v) per W-orbit
    representative; each level's weighted sum must divide exactly. The
    census keeps those neighborhoods for the sunflower census.
    """
    if g.n == 0:
        return CliqueCensus(omega=0, per_orbit=(), total_maximum_cliques=0)
    hoods = tuple(carried_neighborhoods(g))
    trees = list(_trees(hoods))
    omega = _clique_number(trees)
    per_orbit = tuple(
        (hood.orbit_size, _count(rows, tree, omega - 1))
        for hood, (rows, tree) in zip(hoods, trees)
    )
    total = exact_quotient(sum(n * c for n, c in per_orbit), omega, "maximum-clique count")
    return CliqueCensus(omega, per_orbit, total, hoods)


def count_maximal_cliques_by_size(g: MembershipGraph) -> dict[int, int]:
    """Counts of maximal cliques by size, orbit-weighted.

    Maximal cliques of size s through v biject with maximal (s-1)-cliques
    of the neighborhood graph, so per-size weighted sums divide by s.
    """
    weighted: Counter = Counter()
    for hood in carried_neighborhoods(g):
        if hood.members.size == 0:
            weighted[1] += hood.orbit_size
            continue
        counts = maximal_clique_size_counts(hood.rows, _full_mask(hood.members.size))
        for s1, cnt in counts.items():
            weighted[s1 + 1] += hood.orbit_size * cnt
    return {s: exact_quotient(w, s, "maximal-clique count") for s, w in sorted(weighted.items())}


def brute_force_maximum_cliques(
    g: MembershipGraph, bound: int = DEFAULT_BRUTE_FORCE_BOUND
) -> list[tuple[int, ...]]:
    """All maximum cliques by unassisted full enumeration (oracle path).

    Walks every clique of the graph without orbit reasoning or pruning
    bounds; refuses graphs above bound.
    """
    if g.n > bound:
        raise ValueError(f"graph has {g.n} vertices; brute force bound is {bound}")
    if g.n == 0:
        return []
    rows = induced_bitrows(g, np.arange(g.n))
    best: list[tuple[int, ...]] = []
    best_size = 0
    chosen: list[int] = []

    def rec(cand: int):
        nonlocal best_size
        if len(chosen) > best_size:
            best_size = len(chosen)
            best.clear()
        if len(chosen) == best_size:
            best.append(tuple(chosen))
        c = cand
        while c:
            b = c & -c
            v = b.bit_length() - 1
            c ^= b
            chosen.append(v)
            rec(cand & rows[v] & ~((b << 1) - 1))
            chosen.pop()

    rec(_full_mask(g.n))
    return sorted(best)
