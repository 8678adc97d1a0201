"""Support-based sunflower classification of maximum cliques.

A clique is a sunflower when the columns of its vertex-vector matrix are
core columns (no zero entry), petal columns (one non-zero entry) or zero
columns, with a non-empty core.

The census counts sunflowers without listing cliques. The reflections in
the positive roots with one non-zero coordinate, or two of equal
absolute value, are signed coordinate permutations; they generate the
support-preserving subgroup H of W (W(D8) in E8, W(B4) in F4), whose
elements map supports to supports and sunflowers to sunflowers. So the
sunflowers through one vertex v per H-orbit, weighted by orbit size, sum
to omega times the total, and that division must be exact.

Once v is fixed the condition is pairwise: {v} + C is a sunflower exactly
when every w in C has the same non-empty core K = supp(v) & supp(w) and
the petals supp(w) - K are pairwise disjoint. So N(v) splits by K, each
part keeps only the edges between petal-disjoint neighbors, and the
(omega-1)-cliques of each part are counted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from sosgraphs.clique import (
    CliqueCensus,
    GraphLike,
    bitrows,
    count_cliques_of_size_bitset,
    count_maximum_cliques,
    induced_bitrows,
)
from sosgraphs.graph import orbit_labels, reflection_permutations
from sosgraphs.roots import RootSystem, RootVector, simple_roots_of
from sosgraphs.sos import VertexSet


@dataclass(frozen=True)
class SunflowerVerdict:
    is_sunflower: bool
    core: frozenset[int]
    column_profile: tuple[int, ...]


@dataclass(frozen=True)
class SunflowerCensus:
    omega: int
    total_maximum_cliques: int
    sunflower_cliques: int

    @property
    def percentage_tenths(self) -> int:
        """Percentage rounded half-up to one decimal, in tenths of a percent."""
        if self.total_maximum_cliques == 0:
            return 0
        return (2000 * self.sunflower_cliques + self.total_maximum_cliques) // (
            2 * self.total_maximum_cliques
        )

    def percentage_str(self) -> str:
        tenths = self.percentage_tenths
        return f"{tenths // 10}.{tenths % 10}"


def is_sunflower(vectors) -> SunflowerVerdict:
    """Column-profile verdict for a family of p >= 2 equal-length vectors."""
    vecs = list(vectors)
    p = len(vecs)
    if p < 2:
        raise ValueError("sunflower classification needs at least 2 vectors")
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("vectors must share one dimension")
    profile = tuple(sum(1 for v in vecs if v[j] != 0) for j in range(dim))
    core = frozenset(j for j, c in enumerate(profile) if c == p)
    ok = bool(core) and all(c in (0, 1, p) for c in profile)
    return SunflowerVerdict(is_sunflower=ok, core=core if ok else frozenset(), column_profile=profile)


def pairwise_is_sunflower(vectors) -> bool:
    """Reference check: all pairwise support intersections equal and non-empty."""
    vecs = list(vectors)
    if len(vecs) < 2:
        raise ValueError("sunflower classification needs at least 2 vectors")
    supports = [frozenset(j for j, x in enumerate(v) if x != 0) for v in vecs]
    inters = {a & b for a, b in itertools.combinations(supports, 2)}
    return len(inters) == 1 and bool(next(iter(inters)))


def signed_permutation_roots(rs: RootSystem) -> tuple[RootVector, ...]:
    """Generators of H: the simple roots of the subsystem of roots whose
    reflections are signed coordinate permutations (one non-zero
    coordinate, or two of equal absolute value)."""
    return simple_roots_of(
        alpha for alpha in rs.roots
        if len({abs(x) for x in alpha if x}) == 1 and sum(1 for x in alpha if x) <= 2
    )


def perm_orbit_labels(roots, vertices: VertexSet) -> np.ndarray:
    """Orbit id per vertex under the reflections in roots, numbered by lowest index."""
    return orbit_labels(reflection_permutations(roots, vertices.vectors), len(vertices))


def _support_masks(rows: np.ndarray) -> np.ndarray:
    """Support of each row as a bit mask over the coordinates."""
    return (rows != 0).astype(np.int64) @ (1 << np.arange(rows.shape[1], dtype=np.int64))


def sunflowers_through(g: GraphLike, v: int, omega: int) -> int:
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


def orbit_weighted_sunflowers(g: GraphLike, roots, omega: int) -> int:
    """Sunflower maximum cliques (of size omega >= 2) from one vertex per
    orbit of the reflections in roots, weighted by orbit size and divided
    exactly by omega (ArithmeticError otherwise)."""
    labels = perm_orbit_labels(roots, g.vertices)
    reps = np.unique(labels, return_index=True)[1].tolist()
    weighted = sum(
        size * sunflowers_through(g, v, omega)
        for size, v in zip(np.bincount(labels).tolist(), reps)
    )
    sunflowers, rem = divmod(weighted, omega)
    if rem:
        raise ArithmeticError(f"orbit-weighted sunflower count {weighted} not divisible by {omega}")
    return sunflowers


def count_sunflower_max_cliques(
    g: GraphLike, rs: RootSystem, census: CliqueCensus | None = None
) -> SunflowerCensus:
    """Sunflower totals by H-orbit weighting; exact division by omega.

    omega and the maximum-clique total come from the two-level census of
    g (computed when not given); singleton "cliques" of edgeless graphs
    are never sunflowers.
    """
    if census is None:
        census = count_maximum_cliques(g)
    omega = census.omega
    sunflowers = 0
    if omega >= 2:
        sunflowers = orbit_weighted_sunflowers(g, signed_permutation_roots(rs), omega)
    return SunflowerCensus(omega, census.total_maximum_cliques, sunflowers)


def count_sunflowers_direct(g: GraphLike, cliques) -> int:
    """Classify an explicit clique list (global vertex indices); oracle path."""
    vectors = g.vertices.vectors
    count = 0
    for clique in cliques:
        vecs = [tuple(int(x) for x in vectors[v]) for v in clique]
        if len(vecs) >= 2 and is_sunflower(vecs).is_sunflower:
            count += 1
    return count
