"""Strongly orthogonal subsets (SOS) and their deduplicated sums.

W acts on the SOS of each size, preserving strong orthogonality, and every
supported system is irreducible, so W is transitive on the roots of each
length. Every k-SOS is therefore W-conjugate to one through a fixed root
theta of each length, and the vertex set V_k is the W-orbit closure of the
seeds theta + sum(T), T a (k-1)-SOS among the roots strongly orthogonal to
theta (the 126 roots of E7 when the system is E8).

Multiplicities are counted, not enumerated. Counting the pairs (S, a) with
a in S over the k-SOS S whose sum lies in a W-orbit O gives

    k |O| mult(O) = sum over theta of |W theta| sum_{y in O} c_theta(y),

where c_theta(y) is the number of (k-1)-SOS T with theta + sum(T) = y. The
division is exact or the vertex set is wrong (ArithmeticError).

The closure walks each W-orbit once, down from its dominant vertex
(`roots.weyl_closure`), and returns the simple reflections as
permutations of the vertices, with the W-orbits as their components. The
vertex set keeps both, the orbit ids and the (rank, n) permutations, for
the graph views.

The gamma graph is the vertex set itself: two vertices are adjacent when
their difference is again a vertex (`VertexSet.adjacent`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from sosgraphs.roots import (
    RootSystem,
    encode_rows,
    key_index,
    key_offset,
    parse_label,
    reflection_permutations,
    weyl_closure,
)


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated sums of k-element SOS with multiplicities.

    vectors rows are doubled coordinates in lex order; multiplicity[i]
    counts the SOS summing to vectors[i]; orbit[i] is the W-orbit id of
    row i, numbered by lowest row (None when built without the closure).
    """

    label: str
    k: int
    vectors: np.ndarray  # (n, dim) int32, lex-sorted rows
    multiplicity: np.ndarray  # (n,) int64
    orbit: np.ndarray | None = field(default=None, repr=False, compare=False)
    _keys: np.ndarray | None = field(default=None, repr=False, compare=False)
    _reflections: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def keys(self) -> np.ndarray:
        """Sorted int64 key per row, encoded once."""
        if self._keys is None:
            object.__setattr__(self, "_keys", encode_rows(self.vectors))
        return self._keys

    def reflections(self) -> np.ndarray:
        """The simple reflections as a (rank, n) int32 array of row
        permutations: entry [s, i] is the index of the image of vectors[i]
        under simple reflection s. Kept from the closure, or looked up once
        for a set not closed here."""
        if self._reflections is None:
            perms = reflection_permutations(
                parse_label(self.label).simple_roots, self.vectors, self.keys()
            )
            object.__setattr__(self, "_reflections", perms)
        return self._reflections

    def sos_count(self) -> int:
        return int(self.multiplicity.sum())

    def adjacent(self, a, b) -> np.ndarray:
        """Whether vectors[a] - vectors[b] is a vertex, for anything that
        indexes the key array: ints, slices or index arrays that broadcast.

        Keys are affine in the rows, so key(u) - key(v) + key_offset(dim)
        equals key(u - v) while every coordinate of u - v stays in the key
        digit range, and one binary search against the sorted keys decides.
        """
        keys = self.keys()
        return key_index(keys, keys[a] - keys[b] + key_offset(self.dim)) >= 0


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


def _seeds(rs: RootSystem, k: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per root length: (|W theta|, seed rows, c_theta) for one fixed root theta.

    The seeds are the distinct sums theta + sum(T) over the (k-1)-SOS T
    among the roots strongly orthogonal to theta, and c_theta counts the T
    behind each. T grows one root at a time in lex order, so each T is
    listed once.
    """
    roots = np.asarray(rs.roots, dtype=np.int64)
    adj = _so_adjacency(rs)
    norms = (roots * roots).sum(axis=1)
    out = []
    # A set, not np.unique: a plain np.unique imports numpy.ma.
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


def _orbit_vertex_set(rs: RootSystem, k: int) -> VertexSet:
    """V_k as the W-orbit closure of the seeds, multiplicities per W-orbit."""
    seeds = _seeds(rs, k)
    rows, keys, orbit, perms = weyl_closure(
        np.concatenate([s for _, s, _ in seeds]), rs.simple_roots
    )
    orbit_sizes = np.bincount(orbit)
    weighted = np.zeros(orbit_sizes.size, dtype=np.int64)
    for length_size, seed_rows, counts in seeds:
        np.add.at(weighted, orbit[key_index(keys, encode_rows(seed_rows))], length_size * counts)
    mult, rem = np.divmod(weighted, k * orbit_sizes)
    if rem.any():
        raise ArithmeticError(
            f"{rs.label} k={k}: orbit-weighted SOS counts {weighted.tolist()} are not "
            f"divisible by k times the orbit sizes {orbit_sizes.tolist()}"
        )
    return VertexSet(
        label=rs.label, k=k, vectors=rows.astype(np.int32), multiplicity=mult[orbit],
        orbit=orbit, _keys=keys, _reflections=perms,
    )


_VCACHE: dict[tuple[str, int], VertexSet] = {}


def vertex_set(rs: RootSystem, k: int) -> VertexSet:
    """Sorted deduplicated sums of k-element SOS, with multiplicities."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > rs.max_sos_size:
        return VertexSet(
            label=rs.label,
            k=k,
            vectors=np.empty((0, rs.ambient_dim), dtype=np.int32),
            multiplicity=np.empty(0, dtype=np.int64),
            orbit=np.empty(0, dtype=np.int32),
        )
    hit = _VCACHE.get((rs.label, k))
    if hit is None:
        hit = _VCACHE[(rs.label, k)] = _orbit_vertex_set(rs, k)
    return hit

