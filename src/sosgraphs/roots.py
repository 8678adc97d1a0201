"""Exact integer root systems: G2, F4, E6, E7, E8 plus A(l)/D(l) fixtures.

Every stored coordinate is twice the true value ("doubled coordinates"),
so half-integer roots and F4 short roots are exact machine integers.
Doubled inner products are 4x the true inner product; doubled squared
norms of norm-2 roots equal 8.

Lattice vectors are keyed by an order-preserving int64 codec
(`encode_rows`, one product, looked up with `key_index`). A generator of
the Weyl group acts on a closed set of rows as an index permutation
(`reflection_permutations`, the one lookup), and orbits are the
components of those permutations (`orbit_labels`).

`weyl_closure` closes a set of vectors under the simple reflections in
one breadth-first search from all seeds together. Reflections are
involutions, so the distance to the seed set changes by at most one
under each, and an image of level d lies in level d-1, d or d+1: it is
looked up in levels d-1 and d only, and the rest form level d+1. The
search records where every image lands, so it returns the simple
reflections as permutations of the closed rows at no extra cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RootVector = tuple[int, ...]

EXCEPTIONAL_LABELS = ("G2", "F4", "E6", "E7", "E8")

# Coxeter numbers; |R| = rank * h is asserted at construction.
COXETER_NUMBER = {"G2": 6, "F4": 12, "E6": 12, "E7": 18, "E8": 30}

# Largest strongly orthogonal subset; E6 is the one case below rank.
MAX_SOS_SIZE = {"G2": 2, "F4": 4, "E6": 4, "E7": 7, "E8": 8}

# Key encoding: coordinates of vertices stay within [-16, 16] and their
# pairwise differences within [-32, 32], so digit + 32 fits in [0, 128).
KEY_BASE = 128
KEY_SHIFT = 32
# Largest ambient dimension whose keys fit in int64 (KEY_BASE ** dim <= 2 ** 63).
MAX_AMBIENT_DIM = 63 // (KEY_BASE.bit_length() - 1)


class RootSystemError(ValueError):
    """Unknown label, bad rank, or a vector outside the expected lattice."""


class GroupActionError(ValueError):
    """A generator maps some indexed vertex outside the indexed set."""


def dot(v: RootVector, w: RootVector) -> int:
    """Doubled-coordinate dot product (4x the true inner product)."""
    if len(v) != len(w):
        raise RootSystemError(f"dimension mismatch: {len(v)} vs {len(w)}")
    return sum(a * b for a, b in zip(v, w))


def sub(v: RootVector, w: RootVector) -> RootVector:
    return tuple(a - b for a, b in zip(v, w))


def key_offset(dim: int) -> int:
    """key(u - v) == key(u) - key(v) + key_offset(dim), keys from encode_rows."""
    off = 0
    for _ in range(dim):
        off = off * KEY_BASE + KEY_SHIFT
    return off


def encode_rows(rows: np.ndarray) -> np.ndarray:
    """Injective int64 key per row of an (..., dim) int array; numeric order
    equals lex order of rows. Raises ValueError on a coordinate outside
    the digit range [-KEY_SHIFT, KEY_BASE - KEY_SHIFT).

    The key is the base-KEY_BASE number with digits row + KEY_SHIFT, one
    product: rows @ KEY_BASE ** (dim-1 .. 0) + key_offset(dim). Every
    partial sum stays below KEY_BASE ** dim <= 2 ** 63 in absolute value,
    so nothing wraps.
    """
    if rows.size and (rows.min() < -KEY_SHIFT or rows.max() >= KEY_BASE - KEY_SHIFT):
        raise ValueError(
            f"coordinate outside the key digit range [{-KEY_SHIFT}, {KEY_BASE - KEY_SHIFT})"
        )
    dim = rows.shape[-1]
    weights = KEY_BASE ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64, copy=False) @ weights + key_offset(dim)


def key_index(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position of each query key in the sorted key array, -1 where absent."""
    query = np.asarray(query, dtype=np.int64)
    if keys.size == 0:
        return np.full(query.shape, -1, dtype=np.int64)
    pos = np.asarray(np.searchsorted(keys, query))  # 0-d for a scalar query
    np.minimum(pos, keys.size - 1, out=pos)
    pos[keys[pos] != query] = -1
    return pos


@dataclass(frozen=True)
class RootSystem:
    """A root system in doubled integer coordinates.

    roots is the full lex-sorted tuple of roots; simple_roots generate the
    Weyl group action used by orbit labelling.
    """

    label: str
    rank: int
    ambient_dim: int
    roots: tuple[RootVector, ...]
    simple_roots: tuple[RootVector, ...]
    coxeter_number: int
    max_sos_size: int


def _e8_roots() -> list[RootVector]:
    roots: list[RootVector] = []
    # 112 integer roots +-e_i +- e_j (doubled entries +-2)
    for i, j in itertools.combinations(range(8), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * 8
                v[i], v[j] = si, sj
                roots.append(tuple(v))
    # 128 half-integer roots (doubled entries +-1), even number of minus signs
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    return roots


def _f4_roots() -> list[RootVector]:
    roots: list[RootVector] = []
    for i, j in itertools.combinations(range(4), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * 4
                v[i], v[j] = si, sj
                roots.append(tuple(v))
    for i in range(4):
        for s in (2, -2):
            v = [0] * 4
            v[i] = s
            roots.append(tuple(v))
    roots.extend(itertools.product((1, -1), repeat=4))
    return roots


def _g2_roots() -> list[RootVector]:
    # Realized in R^3 on the hyperplane x1 + x2 + x3 = 0.
    roots: list[RootVector] = []
    for i, j in itertools.permutations(range(3), 2):
        v = [0, 0, 0]
        v[i], v[j] = 2, -2
        roots.append(tuple(v))  # short, doubled norm 8
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        for s in (1, -1):
            v = [0, 0, 0]
            v[i], v[j], v[k] = 4 * s, -2 * s, -2 * s
            roots.append(tuple(v))  # long, doubled norm 24
    return roots


def _a_roots(rank: int) -> list[RootVector]:
    n = rank + 1
    roots = []
    for i, j in itertools.permutations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 2, -2
        roots.append(tuple(v))
    return roots


def _d_roots(rank: int) -> list[RootVector]:
    roots = []
    for i, j in itertools.combinations(range(rank), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * rank
                v[i], v[j] = si, sj
                roots.append(tuple(v))
    return roots


def simple_roots_of(roots) -> tuple[RootVector, ...]:
    """Deterministic base of a root system or subsystem: the lex-positive
    roots not expressible as a sum of two lex-positive roots.

    Any valid base generates the Weyl group, which is all the base is used
    for; the lex functional makes the choice reproducible.
    """
    positive = {r for r in roots if r > tuple([0] * len(r))}
    return tuple(sorted(
        alpha for alpha in positive
        if not any(sub(alpha, beta) in positive for beta in positive if beta != alpha)
    ))


@lru_cache(maxsize=None)
def build_root_system(label: str, rank: int | None = None) -> RootSystem:
    """Construct a root system by label; rank only for A(l) and D(l)."""
    if label in EXCEPTIONAL_LABELS:
        if rank is not None:
            raise RootSystemError(f"rank is fixed for {label}")
        if label == "G2":
            roots, rk, dim = _g2_roots(), 2, 3
        elif label == "F4":
            roots, rk, dim = _f4_roots(), 4, 4
        elif label == "E8":
            roots, rk, dim = _e8_roots(), 8, 8
        elif label == "E7":
            e1_e8 = (2, 0, 0, 0, 0, 0, 0, 2)
            roots = [r for r in _e8_roots() if dot(r, e1_e8) == 0]
            rk, dim = 7, 8
        else:  # E6
            e1_e7 = (2, 0, 0, 0, 0, 0, 2, 0)
            e1_e8 = (2, 0, 0, 0, 0, 0, 0, 2)
            roots = [r for r in _e8_roots() if dot(r, e1_e7) == 0 and dot(r, e1_e8) == 0]
            rk, dim = 6, 8
        h = COXETER_NUMBER[label]
        max_sos = MAX_SOS_SIZE[label]
    elif label == "A":
        if rank is None or rank < 1:
            raise RootSystemError("A(l) requires rank >= 1")
        roots, rk, dim = _a_roots(rank), rank, rank + 1
        h = rank + 1
        max_sos = (rank + 1) // 2
    elif label == "D":
        if rank is None or rank < 4:
            raise RootSystemError("D(l) requires rank >= 4")
        roots, rk, dim = _d_roots(rank), rank, rank
        h = 2 * rank - 2
        max_sos = 2 * (rank // 2)
    else:
        raise RootSystemError(f"unknown root system label {label!r}")
    if dim > MAX_AMBIENT_DIM:
        raise RootSystemError(
            f"{label}{rank} needs ambient dimension {dim}; vertex keys support "
            f"at most {MAX_AMBIENT_DIM} (A(l) up to A{MAX_AMBIENT_DIM - 1}, "
            f"D(l) up to D{MAX_AMBIENT_DIM})"
        )

    roots = sorted(set(roots))
    if len(roots) != rk * h:
        raise RootSystemError(f"{label}: got {len(roots)} roots, expected {rk * h}")
    simple = simple_roots_of(roots)
    if len(simple) != rk:
        raise RootSystemError(f"base extraction found {len(simple)} simple roots, expected {rk}")
    return RootSystem(
        label=label if rank is None else f"{label}{rank}",
        rank=rk,
        ambient_dim=dim,
        roots=tuple(roots),
        simple_roots=simple,
        coxeter_number=h,
        max_sos_size=max_sos,
    )


def parse_label(text: str) -> RootSystem:
    """Parse CLI-style labels: G2/F4/E6/E7/E8, or A3, D4, ..."""
    text = text.strip()
    if text in EXCEPTIONAL_LABELS:
        return build_root_system(text)
    if text and text[0] in ("A", "D") and text[1:].isdigit():
        return build_root_system(text[0], int(text[1:]))
    raise RootSystemError(f"unknown root system label {text!r}")


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


def reflection_permutations(roots, rows: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
    """The reflections in roots as permutations of lex-sorted rows: a
    (len(roots), n) int32 array.

    keys, when given, are the rows' keys. Each reflection must map the
    rows onto themselves (SOS sums map to SOS sums); an image outside
    raises GroupActionError. The roots are taken one at a time: all at
    once, the int64 images of the 8 H-roots on the E8 k=7 vertex set alone
    would be 35 MB.
    """
    if keys is None:
        keys = encode_rows(rows)
    perms = np.empty((len(roots), len(keys)), dtype=np.int32)
    for i, alpha in enumerate(roots):
        perms[i] = vertex_permutation(keys, reflect_rows(rows, alpha)[0])
    return perms


def component_labels(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Min-label propagation with pointer jumping; exact components."""
    labels = np.arange(n, dtype=np.int64)
    if indices.size == 0:
        return labels
    deg = np.diff(indptr)
    nonempty = deg > 0
    offsets = indptr[:-1][nonempty]
    while True:
        row_min = np.minimum.reduceat(labels[indices], offsets)
        updated = labels.copy()
        updated[nonempty] = np.minimum(labels[nonempty], row_min)
        while True:
            jumped = updated[updated]
            if np.array_equal(jumped, updated):
                break
            updated = jumped
        if np.array_equal(updated, labels):
            return labels
        labels = updated


def orbit_labels(perms, n: int) -> np.ndarray:
    """Orbit id per index: components of the generator permutations, a
    sequence or a (g, n) array.

    Each generator has finite order, so its forward images alone reach
    the whole orbit. Orbits are numbered by their lowest index, which is
    the lex-least vertex of a lex-sorted vertex set.
    """
    if len(perms) == 0:
        return np.arange(n, dtype=np.int32)
    indices = np.stack(perms, axis=1).ravel()
    indptr = np.arange(0, indices.size + 1, len(perms))
    lowest = component_labels(n, indptr, indices)
    return np.unique(lowest, return_inverse=True)[1].astype(np.int32)


def weyl_closure(
    seeds: np.ndarray, simple_roots
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closure of the seed rows under the reflections in simple_roots.

    Returns the lex-sorted rows, their keys, an orbit id per row numbered
    by lowest row, and the simple reflections as a (rank, n) int32 array
    of row permutations.

    One breadth-first search starts from all seeds at once, and each level
    is reflected by every simple root in one product. Level d holds the
    rows at distance d from the seed set in the graph of the reflections.
    They are involutions, so that graph is undirected and s.x lies at
    distance d-1, d or d+1 when x lies at d: an image of level d is found
    in level d-1 or d, or else belongs to level d+1. Every image is
    recorded where it lands, which is the reflection's permutation, and
    the orbits are the components of those permutations (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, 4.1).
    """
    seed_rows = np.asarray(seeds, dtype=np.int64)
    level_keys, first = np.unique(encode_rows(seed_rows), return_index=True)
    level_rows = seed_rows[first]
    # Empty heads keep the concatenations below valid when there are no seeds.
    rows, keys = [level_rows[:0]], [level_keys[:0]]
    targets = [np.empty((len(simple_roots), 0), dtype=np.int32)]
    before, start = level_keys[:0], 0  # the level before and its first global index
    while level_keys.size:
        rows.append(level_rows)
        keys.append(level_keys)
        here = start + before.size
        nxt = here + level_keys.size
        images = reflect_rows(level_rows, simple_roots)
        image_keys = encode_rows(images)
        in_before = key_index(before, image_keys)
        in_level = key_index(level_keys, image_keys)
        fresh = (in_before < 0) & (in_level < 0)
        new_keys, new_first, new_pos = np.unique(
            image_keys[fresh], return_index=True, return_inverse=True
        )
        target = np.where(in_before >= 0, start + in_before, here + in_level)
        target[fresh] = nxt + new_pos
        targets.append(target.astype(np.int32))
        before, start = level_keys, here
        level_rows, level_keys = images[fresh][new_first], new_keys
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    position = np.empty(order.size, dtype=np.int32)
    position[order] = np.arange(order.size)
    perms = position[np.concatenate(targets, axis=1)[:, order]]
    rows = np.concatenate(rows)[order]
    return rows, keys[order], orbit_labels(perms, order.size), perms
