"""Strongly orthogonal subsets (SOS) and their deduplicated sums.

The vertex set V_k is counted one W-orbit at a time, never listed. A
candidate set C is the set of roots strongly orthogonal, in R, to every
root chosen so far (C = R before the first). C is closed under its own
reflections: for beta in C and a chosen alpha, s_beta fixes alpha, so
s_beta(gamma) +- alpha = s_beta(gamma +- alpha). So W(C) acts on the
k-SOS of C, and each W(C)-orbit of roots holds one dominant root theta
(one per component and root length of C). Write C_theta for the roots of
C strongly orthogonal to theta, and N(C, k, O) for the number of k-SOS of
C whose sum lies in the W(C)-orbit O. Counting the pairs (S, a) with a in
S, and moving a to its dominant root, gives

    k N(C, k, O) = sum over theta of |W(C) theta|
                   sum over O' of N(C_theta, k-1, O') [theta + y_O' in O],

where y_O' is the W(C_theta)-dominant vertex of O'. W(C_theta) fixes
theta, so all of O' lands in the orbit of theta + y_O', and that orbit is
named by its W(C)-dominant vertex. Each table of C (its base, its
dominant roots, their orbit sizes and the C_theta) is cached by C and
does not depend on k. Each division by k is exact or the count is wrong
(ArithmeticError), and so is mult(O) = N(R, k, O) / |O| at the top.

The dominant vertices seed the closure, which walks each W-orbit once,
down from its dominant vertex (`roots.weyl_closure`), and returns the
orbit ids and the Cartan integers <x, a_j^v> the walk carries. From those
integers and the keys, one function (`closed_vertex_set`) builds W's
action for the graph views: the descent forest of the simple reflections
as permutations of the vertices, paired by the Cartan integers
themselves, checked against the orbit ids. A graph file's vertex set
gets its action from the same function.

The gamma graph is the vertex set itself: two vertices are adjacent when
their difference is again a vertex (`VertexSet.adjacent`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from sosgraphs.roots import (
    DescentForest,
    GroupActionError,
    RootSystem,
    _cartan_integers,
    _dominant,
    _image_permutations,
    _simple_rows,
    descent_forest,
    encode_rows,
    exact_quotient,
    key_index,
    key_offset,
    parse_label,
    reflection_permutations,
    weyl_closure,
)


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated sums of k-element SOS with multiplicities, and W's action.

    vectors rows are doubled coordinates in lex order; multiplicity[i]
    counts the SOS summing to vectors[i]; orbit[i] is the W-orbit id of
    row i, numbered by lowest row; keys are the rows' sorted int64 keys.
    forest is W's action (`closed_vertex_set`): its perms are the simple
    reflections as a (rank, n) int32 array of row permutations
    (perms[j, i] is the index of s_j.vectors[i]), and its pairing the
    (n, rank) Cartan integers pairing[i, j] = <vectors[i], a_j^v>.
    """

    label: str
    k: int
    vectors: np.ndarray  # (n, dim) int32, lex-sorted rows
    multiplicity: np.ndarray  # (n,) int64
    orbit: np.ndarray = field(repr=False, compare=False)
    keys: np.ndarray = field(repr=False, compare=False)
    forest: DescentForest = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def sos_count(self) -> int:
        return int(self.multiplicity.sum())

    def adjacent(self, a, b) -> np.ndarray:
        """Whether vectors[a] - vectors[b] is a vertex, for anything that
        indexes the key array: ints, slices or index arrays that broadcast.

        Keys are affine in the rows, so key(u) - key(v) + key_offset(dim)
        equals key(u - v) while every coordinate of u - v stays in the key
        digit range, and one binary search against the sorted keys decides.
        """
        return key_index(self.keys, self.keys[a] - self.keys[b] + key_offset(self.dim)) >= 0


def closed_vertex_set(label: str, k: int, vectors, multiplicity, orbit, keys, pairing) -> VertexSet:
    """The vertex set of W-closed rows with W's action, built from the
    rows' sorted keys and (n, rank) Cartan integers with the simple roots:
    the one place a vertex set gets its action.

    Each simple reflection is one lookup of image keys found by key
    arithmetic (`_image_permutations`), so the caller must have bounded
    the norms; an image outside the rows raises GroupActionError. The
    Cartan integers are the forest's pairing: per column a positive
    multiple of <x, a_j>, all that its descent and stabilizers read. A
    forest without one root per recorded W-orbit raises GroupActionError.
    """
    simple = np.asarray(parse_label(label).simple_roots, dtype=np.int64)
    perms = _image_permutations(keys, simple, lambda lo, hi: pairing[:, lo:hi].T)
    forest = descent_forest(perms, pairing)
    orbits = int(orbit.max()) + 1 if orbit.size else 0
    if forest.roots.size != orbits or not np.array_equal(orbit[forest.root], orbit):
        raise GroupActionError("the descent forest does not have one root per W-orbit")
    return VertexSet(label, k, vectors, multiplicity, orbit, keys, forest)


def strong_orthogonality_graph(rs: RootSystem) -> np.ndarray:
    """Boolean adjacency over rs.roots: edges join strongly orthogonal pairs.

    Neither the sum nor the difference is a root, and beta is not +-alpha.
    When <alpha, beta> > 0 and beta != alpha, alpha - beta is a root, and
    alpha + beta when it is negative and beta != -alpha (Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, 9.4), so only
    orthogonal pairs qualify. Their sum and difference have norm
    |alpha|^2 + |beta|^2, so they are looked up only where that is a root
    norm (F4's short pairs).
    """
    roots = np.asarray(rs.roots, dtype=np.int64)
    gram = roots @ roots.T
    norms = gram.diagonal()
    adj = gram == 0
    i, j = np.nonzero(adj & np.isin(norms[:, None] + norms[None, :], norms))
    keys = encode_rows(roots)
    off = key_offset(rs.ambient_dim)
    hit = (key_index(keys, keys[i] + keys[j] - off) >= 0) | (
        key_index(keys, keys[i] - keys[j] + off) >= 0
    )
    adj[i[hit], j[hit]] = False
    return adj


@lru_cache(maxsize=None)
def _so_adjacency(rs: RootSystem) -> np.ndarray:
    return strong_orthogonality_graph(rs)


@lru_cache(maxsize=None)
def _root_rows(rs: RootSystem) -> np.ndarray:
    return np.asarray(rs.roots, dtype=np.int64)


@dataclass(frozen=True)
class Subsystem:
    """The tables of one candidate set C, a subset of rs.roots closed under
    its own reflections.

    roots are C's rows, lex-sorted; base is the base `roots.simple_roots_of`
    finds for C, rs.simple_roots when C is all of R; gens
    are the base rows followed by the Cartan matrix rows, as
    `roots._dominant` takes them. thetas are the dominant roots of C
    (indices into rs.roots, one per W(C)-orbit), sizes the orbit sizes
    |W(C) theta|, and children the candidate sets C_theta, as mask bytes
    over rs.roots.
    """

    roots: np.ndarray
    base: np.ndarray
    gens: list
    thetas: np.ndarray
    sizes: np.ndarray
    children: tuple[bytes, ...]

    def dominant(self, rows: np.ndarray) -> list[tuple[int, ...]]:
        """The W(C)-dominant vertex of each row's W(C)-orbit, as tuples."""
        dim = rows.shape[1]
        states = np.hstack([rows, _cartan_integers(rows, self.base).T]).tolist()
        return [tuple(_dominant(state, dim, self.gens)[0][:dim]) for state in states]


def _build_subsystem(rs: RootSystem, c: bytes) -> Subsystem:
    """C's base, dominant roots and orbit sizes from the descent forest of
    its simple reflections over its own roots."""
    mask = np.frombuffer(c, dtype=bool)
    members = np.flatnonzero(mask)
    rows = _root_rows(rs)[members]
    if not members.size:
        return Subsystem(rows, rows, [], members, members, ())
    base = _simple_rows(rows)
    forest = descent_forest(reflection_permutations(base, rows), rows @ base.T)
    thetas = members[forest.roots]
    adj = _so_adjacency(rs)
    return Subsystem(
        roots=rows,
        base=base,
        gens=np.hstack([base, _cartan_integers(base, base).T]).tolist(),
        thetas=thetas,
        sizes=forest.sizes(),
        children=tuple((mask & adj[t]).tobytes() for t in thetas),
    )


# (label, C as mask bytes over the roots) -> Subsystem, for every C reached.
_SUBSYSTEMS: dict[tuple[str, bytes], Subsystem] = {}


def subsystem(rs: RootSystem, c: bytes) -> Subsystem:
    """The cached tables of the candidate set with mask bytes c."""
    hit = _SUBSYSTEMS.get((rs.label, c))
    if hit is None:
        hit = _SUBSYSTEMS[(rs.label, c)] = _build_subsystem(rs, c)
    return hit


def _count(rs: RootSystem, c: bytes, k: int, memo: dict) -> dict[tuple[int, ...], int]:
    """N(C, k, O) per W(C)-orbit O of k-SOS sums of C, keyed by the
    W(C)-dominant vertex of O. Each count is the orbit-weighted sum over
    the dominant roots divided by k, exactly or ArithmeticError."""
    if k == 0:
        return {(0,) * rs.ambient_dim: 1}
    hit = memo.get((c, k))
    if hit is not None:
        return hit
    table = subsystem(rs, c)
    weighted: dict[tuple[int, ...], int] = {}
    for theta, size, child in zip(table.thetas.tolist(), table.sizes.tolist(), table.children):
        below = _count(rs, child, k - 1, memo)
        if not below:
            continue
        sums = np.asarray(list(below), dtype=np.int64) + _root_rows(rs)[theta]
        for top, count in zip(table.dominant(sums), below.values()):
            weighted[top] = weighted.get(top, 0) + size * count
    what = f"count of {rs.label} {k}-SOS of a candidate set of {len(table.roots)} roots: orbit"
    out = {top: exact_quotient(total, k, f"{what} {top}") for top, total in weighted.items()}
    memo[(c, k)] = out
    return out


def _orbit_counts(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """N(R, k, O) per W-orbit O of V_k, keyed by its dominant vertex."""
    return _count(rs, np.ones(len(rs.roots), dtype=bool).tobytes(), k, {})


def vertex_set(rs: RootSystem, k: int) -> VertexSet:
    """Sorted deduplicated sums of k-element SOS, with multiplicities: V_k
    as the W-orbit closure of its dominant vertices, with
    mult(O) = N(R, k, O) / |O| per W-orbit O; empty above the largest SOS.

    Each call builds V_k afresh, and nothing keeps it but the caller: a
    caller that needs V_k again holds on to it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = _orbit_counts(rs, k) if k <= rs.max_sos_size else {}
    dominant = np.asarray(list(counts), dtype=np.int64).reshape(-1, rs.ambient_dim)
    rows, keys, orbit, cartan = weyl_closure(dominant, rs.simple_roots)
    orbit_sizes = np.bincount(orbit)
    weighted = np.zeros(orbit_sizes.size, dtype=np.int64)
    weighted[orbit[key_index(keys, encode_rows(dominant))]] = list(counts.values())
    mult, rem = np.divmod(weighted, orbit_sizes)
    if rem.any():
        raise ArithmeticError(
            f"{rs.label} k={k}: SOS counts per W-orbit {weighted.tolist()} are not "
            f"divisible by the orbit sizes {orbit_sizes.tolist()}"
        )
    return closed_vertex_set(rs.label, k, rows.astype(np.int32), mult[orbit], orbit, keys, cartan)

