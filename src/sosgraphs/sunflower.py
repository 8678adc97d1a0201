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

No neighborhood is induced again here. Each representative x is g.r for
its W-representative r, the dominant vertex, with g read off the descent
forest of the simple reflections, so the clique census's carried N(r),
moved by g, is N(x) index for index, and each part's adjacency is a
slice of r's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sosgraphs.clique import (
    CliqueCensus,
    Neighborhood,
    _exact_quotient,
    bitrows,
    count_cliques_of_size_bitset,
    count_maximum_cliques,
)
from sosgraphs.graph import (
    DescentForest,
    MembershipGraph,
    orbit_labels,
    reflection_permutations,
    weyl_forest,
)
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


@lru_cache(maxsize=None)
def signed_permutation_roots(rs: RootSystem) -> tuple[RootVector, ...]:
    """Generators of H: the simple roots of the subsystem of roots whose
    reflections are signed coordinate permutations (one non-zero
    coordinate, or two of equal absolute value). Computed once per root
    system."""
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


def _carry(perms: np.ndarray, forest: DescentForest, x: int, row):
    """g_x applied to row, where g_x.r = x for the root r of x's tree in the
    descent forest of perms."""
    path = []
    while forest.gen[x] >= 0:
        path.append(forest.gen[x])
        x = forest.parent[x]
    for j in reversed(path):
        row = perms[j][row]
    return row


def sunflowers_at(masks: np.ndarray, x: int, hood: Neighborhood, images, omega: int) -> int:
    """Sunflower maximum cliques (of size omega >= 2) containing x.

    images[i] is the neighbour of x that vertex i of hood (x's
    W-representative's neighborhood) is carried to, so the adjacency of
    each core part of N(x) is a slice of hood's.
    """
    supports = masks[images]
    cores = supports & masks[x]
    count = 0
    # A set, not np.unique: a plain np.unique imports numpy.ma.
    for core in sorted(set(cores[cores != 0].tolist())):
        part = np.flatnonzero(cores == core)
        petals = supports[part] & ~core
        keep = hood.adjacency[np.ix_(part, part)] & ((petals[:, None] & petals[None, :]) == 0)
        count += count_cliques_of_size_bitset(bitrows(keep), (1 << part.size) - 1, omega - 1)
    return count


def sunflowers_by_orbit(g: MembershipGraph, roots, census: CliqueCensus):
    """(orbit size, lowest vertex x, sunflower maximum cliques through x)
    per orbit of the reflections in roots, for omega >= 2.

    x = g_x.r for its W-representative r, with g_x read off the descent
    forest of the simple reflections, so N(x) = g_x.N(r) index for index
    and the census's carried neighborhood of r serves x.
    """
    labels = perm_orbit_labels(roots, g.vertices)
    xs = np.unique(labels, return_index=True)[1].tolist()
    perms = g.vertices.reflections()
    forest = weyl_forest(g.vertices)
    masks = _support_masks(g.vertices.vectors)
    for size, x in zip(np.bincount(labels).tolist(), xs):
        hood = census.neighborhoods[g.orbit_label[x]]
        images = _carry(perms, forest, x, hood.members)
        yield size, x, sunflowers_at(masks, x, hood, images, census.omega)


def orbit_weighted_sunflowers(g: MembershipGraph, roots, census: CliqueCensus) -> int:
    """Sunflower maximum cliques from one vertex per orbit of the
    reflections in roots, weighted by orbit size and divided exactly by
    omega >= 2 (ArithmeticError otherwise)."""
    weighted = sum(size * count for size, _, count in sunflowers_by_orbit(g, roots, census))
    return _exact_quotient(weighted, census.omega, "sunflower count")


def count_sunflower_max_cliques(
    g: MembershipGraph, rs: RootSystem, census: CliqueCensus | None = None
) -> SunflowerCensus:
    """Sunflower totals by H-orbit weighting; exact division by omega.

    omega and the maximum-clique total come from the orbit census of
    g (computed when not given); singleton "cliques" of edgeless graphs
    are never sunflowers.
    """
    if census is None:
        census = count_maximum_cliques(g)
    omega = census.omega
    sunflowers = 0
    if omega >= 2:
        sunflowers = orbit_weighted_sunflowers(g, signed_permutation_roots(rs), census)
    return SunflowerCensus(omega, census.total_maximum_cliques, sunflowers)


def count_sunflowers_direct(g: MembershipGraph, cliques) -> int:
    """Classify an explicit clique list (global vertex indices); oracle path."""
    vectors = g.vertices.vectors
    count = 0
    for clique in cliques:
        vecs = [tuple(int(x) for x in vectors[v]) for v in clique]
        if len(vecs) >= 2 and is_sunflower(vecs).is_sunflower:
            count += 1
    return count
