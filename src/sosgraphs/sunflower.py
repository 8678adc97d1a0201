"""Support-based sunflower classification of maximum cliques.

A clique is a sunflower when the columns of its vertex-vector matrix are
core columns (no zero entry), petal columns (one non-zero entry) or zero
columns, with a non-empty core. Coordinate permutations preserve this,
so totals are assembled from one representative per permutation orbit,
weighted by orbit size and divided (exactly) by the clique size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from sosgraphs.clique import (
    GraphLike,
    clique_number,
    collect_cliques_of_size,
    induced_bitrows,
)
from sosgraphs.graph import orbit_labels, vertex_permutation
from sosgraphs.roots import RootSystem, RootSystemError
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


@dataclass(frozen=True)
class PermGroup:
    """Coordinate permutations inside the Weyl group, given by generators.

    Each generator is a tuple perm with image[i] = vector[perm[i]]; all
    generators are validated to map the root set onto itself.
    """

    label: str
    dim: int
    generators: tuple[tuple[int, ...], ...]
    order: int


def _transposition(dim: int, i: int, j: int) -> tuple[int, ...]:
    perm = list(range(dim))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _adjacent_transpositions(dim: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    return [_transposition(dim, i, i + 1) for i in range(lo, hi)]


def apply_perm(perm: tuple[int, ...], v) -> tuple:
    return tuple(v[p] for p in perm)


def permutation_subgroup(rs: RootSystem) -> PermGroup:
    """The coordinate-permutation subgroup of the Weyl group.

    E8: all of S8. E7 (x1 + x8 = 0): swap of coordinates 1, 8 times S6 on
    2..7. E6 (x1 + x7 = x1 + x8 = 0): S5 on 2..6. F4: S4. G2: S3 on the
    three ambient coordinates.
    """
    dim = rs.ambient_dim
    if rs.label == "E8":
        gens = _adjacent_transpositions(8, 0, 7)
        order = 40320
    elif rs.label == "E7":
        gens = [_transposition(8, 0, 7)] + _adjacent_transpositions(8, 1, 6)
        order = 2 * 720
    elif rs.label == "E6":
        gens = _adjacent_transpositions(8, 1, 5)
        order = 120
    elif rs.label == "F4":
        gens = _adjacent_transpositions(4, 0, 3)
        order = 24
    elif rs.label == "G2":
        gens = _adjacent_transpositions(3, 0, 2)
        order = 6
    else:
        raise RootSystemError(f"no permutation subgroup table for {rs.label}")
    for perm in gens:
        if {apply_perm(perm, r) for r in rs.roots} != rs.root_set:
            raise RootSystemError(
                f"{rs.label}: generator {perm} does not preserve the root set; "
                "coordinatization mismatch"
            )
    return PermGroup(label=rs.label, dim=dim, generators=tuple(gens), order=order)


def perm_orbit_labels(group: PermGroup, vertices: VertexSet) -> np.ndarray:
    """Orbit id per vertex under the permutation group, numbered by lowest index."""
    keys = vertices.keys()
    perms = [vertex_permutation(keys, vertices.vectors[:, list(p)]) for p in group.generators]
    return orbit_labels(perms, len(vertices))


def _sunflower_count_batch(nonzero: np.ndarray, cliques: np.ndarray, p: int) -> int:
    """Count sunflower cliques in a (batch, p) array of vertex indices."""
    profile = nonzero[cliques].sum(axis=1)
    ok = ((profile == 0) | (profile == 1) | (profile == p)).all(axis=1)
    ok &= (profile == p).any(axis=1)
    return int(ok.sum())


def count_sunflower_max_cliques(
    g: GraphLike, rs: RootSystem, omega: int | None = None
) -> SunflowerCensus:
    """Sunflower totals by permutation-orbit weighting; exact division.

    For each orbit representative v, every maximum clique through v is
    enumerated as v plus an (omega-1)-clique in the neighborhood graph and
    classified by column profile; singleton "cliques" of edgeless graphs
    are never classified as sunflowers.
    """
    if omega is None:
        omega = clique_number(g)
    if omega == 0:
        return SunflowerCensus(omega=0, total_maximum_cliques=0, sunflower_cliques=0)
    group = permutation_subgroup(rs)
    labels = perm_orbit_labels(group, g.vertices)
    orbit_sizes = np.bincount(labels)
    total_weighted = 0
    sunflower_weighted = 0
    nonzero = (g.vertices.vectors != 0).astype(np.int8)
    reps = np.unique(labels, return_index=True)[1].tolist()
    for lab, rep in enumerate(reps):
        size = int(orbit_sizes[lab])
        if omega == 1:
            total_weighted += size
            continue
        nb = g.neighbors(rep)
        if nb.size < omega - 1:
            continue
        rows = induced_bitrows(g, nb)
        locals_ = collect_cliques_of_size(rows, (1 << nb.size) - 1, omega - 1)
        if locals_.shape[0] == 0:
            continue
        cliques = np.empty((locals_.shape[0], omega), dtype=np.int64)
        cliques[:, 0] = rep
        cliques[:, 1:] = nb[locals_]
        total_weighted += size * cliques.shape[0]
        sunflower_weighted += size * _sunflower_count_batch(nonzero, cliques, omega)
    total, rem = divmod(total_weighted, omega)
    if rem:
        raise ArithmeticError("weighted maximum-clique count not divisible by omega")
    sunflowers, rem = divmod(sunflower_weighted, omega)
    if rem:
        raise ArithmeticError("weighted sunflower count not divisible by omega")
    return SunflowerCensus(
        omega=omega, total_maximum_cliques=total, sunflower_cliques=sunflowers
    )


def count_sunflowers_direct(g: GraphLike, cliques) -> int:
    """Classify an explicit clique list (global vertex indices); oracle path."""
    vectors = g.vertices.vectors
    count = 0
    for clique in cliques:
        vecs = [tuple(int(x) for x in vectors[v]) for v in clique]
        if len(vecs) >= 2 and is_sunflower(vecs).is_sunflower:
            count += 1
    return count
