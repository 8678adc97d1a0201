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
the petals supp(w) - K are pairwise disjoint. So the sunflowers through v
are the (omega-1)-cliques of the petal-compatible graph P_v: the
neighbours with a non-empty core, u ~ w when they are adjacent, share
their core and have disjoint petals. No clique of P_v crosses two cores.

P_v is counted the way the clique census counts N(v). v is the
H-dominant vertex of its H-orbit, its highest index, so Stab_H(v) is
generated by the simple reflections of H orthogonal to v (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.12); it fixes v and supp(v), so
it acts on P_v. One u per Stab_H(v)-orbit O gives

    #(omega-1)-cliques(P_v) = sum_O |O| * #(omega-2)-cliques(N_P(u)) / (omega-1)

and that division must be exact too.

H acts through the simple reflections the vertex set keeps. Every simple
root of H is a simple root of W but at most one, whose coroot is an
integer sum of W's simple coroots; so its Cartan integers are that sum
of W's kept columns, its reflection is one lookup per vertex set, and no
vertex is multiplied by a root. `base_action` gives H's descent forest,
built as W's is. The H-orbits and their sizes are its trees, and each
Stab_H(v) on P_v is the step every level of the clique census takes
(`DescentForest.stabilizer`), with no lookup per representative.

No neighborhood is induced again here. Each representative x is g.r for
its W-representative r, the dominant vertex, with g read off W's descent
forest (`DescentForest.carry`), so the clique census's carried N(r),
moved by g, is N(x) index for index. Each N_P(u) is r's carried row of u,
masked, and only its own small adjacency matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sosgraphs.clique import (
    CliqueCensus,
    Neighborhood,
    bitrows,
    count_cliques_of_size_bitset,
    count_maximum_cliques,
)
from sosgraphs.graph import MembershipGraph
from sosgraphs.roots import (
    DescentForest,
    RootSystem,
    RootSystemError,
    RootVector,
    _cartan_integers,
    _image_permutations,
    descent_forest,
    exact_quotient,
    orbit_labels,
    parse_label,
    reflection_permutations,
    simple_roots_of,
)
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


@lru_cache(maxsize=None)
def _split_base(label: str, roots: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A base of the reflections in roots as a read-only (b, dim) array,
    the simple roots of W first; the index j of each of those in W's base;
    and the (rank, b - kept) coordinates d of the others' coroots in W's
    simple coroots, b^v = sum_j d_j a_j^v, so <x, b^v> = sum_j d_j <x, a_j^v>.
    d solves the Cartan-matrix system at the a_i, which has one solution,
    so it is checked exactly."""
    rs = parse_label(label)
    simple = {root: j for j, root in enumerate(rs.simple_roots)}
    base = sorted(simple_roots_of(roots) if roots else (), key=lambda a: a not in simple)
    kept = np.array([simple[a] for a in base if a in simple], dtype=np.int64)
    base = np.array(base, dtype=np.int64).reshape(-1, rs.ambient_dim)
    rows = np.asarray(rs.simple_roots, dtype=np.int64)
    cartan, want = _cartan_integers(rows, rows), _cartan_integers(rows, base[kept.size :])
    coroots = np.rint(np.linalg.solve(cartan.T, want.T)).astype(np.int64)
    if not np.array_equal(cartan.T @ coroots, want.T):
        raise RootSystemError("a base root's coroot is not an integer sum of simple coroots")
    for array in (base, kept, coroots):
        array.flags.writeable = False
    return base, kept, coroots


def base_action(vertices: VertexSet, roots) -> DescentForest:
    """The descent forest of the group the reflections in roots generate:
    its base's reflections as a (b, n) int32 array of vertex permutations,
    paired by the (n, b) Cartan integers of the vertices with the base
    roots.

    A base root that is a simple root of W takes the permutation and the
    Cartan column the vertex set keeps. The others' Cartan integers are
    sums of those columns (`_split_base`), and their reflections one lookup
    of image keys (`roots._image_permutations`). An image outside the
    vertices raises GroupActionError.
    """
    base, kept, coroots = _split_base(vertices.label, tuple(map(tuple, roots)))
    w = vertices.forest
    others = w.pairing @ coroots
    perms = w.perms[kept]
    if others.shape[1]:
        extra = _image_permutations(
            vertices.keys, base[kept.size :], lambda lo, hi: others[:, lo:hi].T
        )
        perms = np.concatenate([perms, extra])
    return descent_forest(perms, np.hstack([w.pairing[:, kept], others]))


def _support_masks(rows: np.ndarray) -> np.ndarray:
    """Support of each row as a bit mask over the coordinates."""
    return (rows != 0).astype(np.int64) @ (1 << np.arange(rows.shape[1], dtype=np.int64))


def sunflowers_at(
    forest: DescentForest, masks: np.ndarray, x: int, hood: Neighborhood, images, omega: int
) -> int:
    """Sunflower maximum cliques (of size omega >= 2) containing x, the
    dominant vertex of its orbit in the group's descent forest: the
    (omega-1)-cliques of P_x, counted at one u per Stab(x)-orbit
    (`DescentForest.stabilizer`), with exact division.

    images[i] is the neighbour of x that vertex i of hood (x's
    W-representative's neighborhood) is carried to, so hood's row i,
    masked, is N_P(images[i]).
    """
    supports = masks[images]
    cores = supports & masks[x]
    part = np.flatnonzero(cores)
    if omega == 2:
        return int(part.size)
    part = part[np.argsort(images[part])]
    local = forest.stabilizer(x, images[part])
    weighted = 0
    for u, n_o in zip(part[local.roots].tolist(), local.sizes().tolist()):
        # w is u's neighbour in P_x exactly when it meets supp(u) | supp(x)
        # in u's core alone.
        core = cores[u]
        hit = np.flatnonzero(hood.adjacency[u] & ((supports & (supports[u] | masks[x])) == core))
        if hit.size < omega - 2:
            continue  # N_P(u) holds no (omega-2)-clique
        petals = supports[hit] & ~core
        keep = hood.adjacency[hit][:, hit] & ((petals[:, None] & petals[None, :]) == 0)
        weighted += n_o * count_cliques_of_size_bitset(bitrows(keep), (1 << hit.size) - 1, omega - 2)
    return exact_quotient(weighted, omega - 1, "clique count of P_x under Stab(x)")


def sunflowers_by_orbit(g: MembershipGraph, roots, census: CliqueCensus):
    """(orbit size, dominant vertex x, sunflower maximum cliques through x)
    per orbit of the reflections in roots, for omega >= 2, in order of x.

    The orbits are the trees of the descent forest of a base of roots, and
    x, a tree's root, is the highest index of its orbit. x = g_x.r for its
    W-representative r, with g_x read off W's descent forest, so
    N(x) = g_x.N(r) index for index and the census's carried neighborhood
    of r serves x.
    """
    h = base_action(g.vertices, roots)
    w = g.vertices.forest
    masks = _support_masks(g.vertices.vectors)
    for size, x in zip(h.sizes().tolist(), h.roots.tolist()):
        hood = census.neighborhoods[g.orbit_label[x]]
        images = w.carry(x, hood.members)
        yield size, x, sunflowers_at(h, masks, x, hood, images, census.omega)


def orbit_weighted_sunflowers(g: MembershipGraph, roots, census: CliqueCensus) -> int:
    """Sunflower maximum cliques from one vertex per orbit of the
    reflections in roots, weighted by orbit size and divided exactly by
    omega >= 2 (ArithmeticError otherwise)."""
    weighted = sum(size * count for size, _, count in sunflowers_by_orbit(g, roots, census))
    return exact_quotient(weighted, census.omega, "sunflower count")


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
