"""Exact integer root systems: G2, F4, E6, E7, E8 plus A(l)/D(l) fixtures.

Every stored coordinate is twice the true value ("doubled coordinates"),
so half-integer roots and F4 short roots are exact machine integers.
Doubled inner products are 4x the true inner product; doubled squared
norms of norm-2 roots equal 8.

Lattice vectors are keyed by an order-preserving int64 codec
(`encode_rows`, one product, looked up with `key_index`). Keys are affine
in the rows, so the key of a reflected row x - <x, a^v> a is key(x) minus
<x, a^v> times a fixed number per root: a generator of the Weyl group acts
on a closed set of rows as an index permutation found by one lookup of
those image keys (`reflection_permutations`), half a lookup when the
rows are closed under negation. Orbits are the classes of one
label-merging step (`merge_labels`) joining each x with s.x
(`orbit_labels`), or the trees of a `DescentForest`: the generators and
their pairings, with the descent of each index toward its orbit's
dominant vertex. That one object gives the stabilizer of a dominant
vertex (`DescentForest.stabilizer`) and carries rows from the roots down
the trees (`DescentForest.transport` and `carry`). Graph components go
through the same label-merging step.

`weyl_closure` closes a set of vectors under the simple reflections one
W-orbit at a time. The closed fundamental chamber is a fundamental domain,
so each orbit has one dominant vertex, reached from any of its vertices by
reflecting in the least simple root with a negative Cartan integer. The
orbit is walked down from there along the reverse of that descent, which
produces every vertex once and needs no lookup. It returns the Cartan
integers it carries, from which the simple reflections follow as
permutations of the closed rows by key arithmetic (`_image_permutations`).
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
    for; the lex functional makes the choice reproducible. Keys are affine
    in the rows and preserve lex order, so the positive roots are the keys
    above key(0), and key(a) + key(b) - key(0) is the key of a + b while
    its digits stay in range (root coordinates lie in [-16, 16]): one
    lookup of every pairwise sum finds the decomposable roots.
    """
    rows = np.array(sorted(set(roots)), dtype=np.int64)
    return tuple(map(tuple, _simple_rows(rows).tolist()))


def _simple_rows(rows: np.ndarray) -> np.ndarray:
    """`simple_roots_of` for lex-sorted, distinct int64 root rows, as rows."""
    off = key_offset(rows.shape[1])
    keys = encode_rows(rows)
    positive, keys = rows[keys > off], keys[keys > off]
    sums = key_index(keys, keys[:, None] + keys[None, :] - off)
    decomposable = np.zeros(keys.size, dtype=bool)
    decomposable[sums[sums >= 0]] = True
    return positive[~decomposable]


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
    elif label in ("A", "D"):
        least = 1 if label == "A" else 4
        if rank is None or rank < least:
            raise RootSystemError(f"{label}(l) requires rank >= {least}")
        rk, dim = rank, rank + 1 if label == "A" else rank
        if dim > MAX_AMBIENT_DIM:  # before A(l) lists its l(l + 1) roots
            raise RootSystemError(
                f"{label}{rank} needs ambient dimension {dim}; vertex keys support "
                f"at most {MAX_AMBIENT_DIM} (A(l) up to A{MAX_AMBIENT_DIM - 1}, "
                f"D(l) up to D{MAX_AMBIENT_DIM})"
            )
        if label == "A":
            roots, h, max_sos = _a_roots(rank), rank + 1, (rank + 1) // 2
        else:
            roots, h, max_sos = _d_roots(rank), 2 * rank - 2, 2 * (rank // 2)
    else:
        raise RootSystemError(f"unknown root system label {label!r}")

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


def _cartan_integers(rows: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """<x, a^v> = 2<x, a>/<a, a> for every root a (a row of roots) and
    every row x: a (len(roots), m) int64 array. A non-integral value means
    x is off the lattice, and raises RootSystemError."""
    coeff, rem = np.divmod(2 * (roots @ rows.T), (roots * roots).sum(axis=1)[:, None])
    if rem.any():
        raise RootSystemError("vector outside the root lattice")
    return coeff


def _check_norms(rows: np.ndarray) -> None:
    """Refuse rows whose images under reflections could leave the key digit
    range. Reflections preserve norms and |x_i| <= |x|, so while every
    doubled norm is below KEY_SHIFT each image digit stays in
    (-KEY_SHIFT, KEY_SHIFT), and its key follows from key arithmetic."""
    if rows.size and np.einsum("ij,ij->i", rows, rows, dtype=np.int64).max() >= KEY_SHIFT**2:
        raise ValueError(
            f"a row of norm {KEY_SHIFT} or more could reflect out of the key digit range"
        )


# Image keys per lookup, at most (256 KB of int64): the roots are taken a
# block at a time, so the Cartan integers and image keys of many roots over
# a large vertex set never sit in memory at once.
_LOOKUP_BATCH = 1 << 15


def _image_permutations(keys: np.ndarray, roots: np.ndarray, coeff_of) -> np.ndarray:
    """The reflections in roots as permutations of the sorted keys: a
    (len(roots), n) int32 array. coeff_of(lo, hi) gives the Cartan
    integers <x, roots[i]^v> of every keyed row x for lo <= i < hi, as a
    (hi - lo, n) array.

    Keys are affine in the rows, so key(x - c a) = key(x) - c * (a . w)
    with w the KEY_BASE powers, and no image row is built. The callers
    have checked the norms, so every image key is the key of the image.
    An image outside the keys raises GroupActionError.

    key(-x) = 2 key_offset(dim) - key(x), so when the keys read backwards
    are those numbers, -x sits at n-1-i whenever x sits at i. A reflection
    commutes with negation, s(-x) = -s(x), so then only the first
    ceil(n/2) columns are looked up and the rest are their mirror images.
    """
    n = keys.size
    weights = KEY_BASE ** np.arange(roots.shape[1] - 1, -1, -1, dtype=np.int64)
    root_keys = roots @ weights
    mirrored = np.array_equal(keys[::-1], 2 * key_offset(roots.shape[1]) - keys)
    half = (n + 1) // 2 if mirrored else n
    perms = np.empty((len(roots), n), dtype=np.int32)
    step = max(1, _LOOKUP_BATCH // max(half, 1))
    for lo in range(0, len(roots), step):
        hi = lo + step
        pos = key_index(keys, keys[:half] - coeff_of(lo, hi)[:, :half] * root_keys[lo:hi, None])
        if (pos < 0).any():
            raise GroupActionError("generator image escapes the vertex set; the set is not closed")
        perms[lo:hi, :half] = pos
        if mirrored:
            perms[lo:hi, half:] = n - 1 - pos[:, : n - half][:, ::-1]
    return perms


def reflection_permutations(roots, rows: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
    """The reflections in roots as permutations of lex-sorted rows: a
    (len(roots), n) int32 array.

    keys, when given, are the rows' keys. Each reflection must map the
    rows onto themselves (SOS sums map to SOS sums); an image outside
    raises GroupActionError. The images are never built: their keys come
    from the rows' keys and Cartan integers (`_image_permutations`).
    """
    rows = np.asarray(rows)
    if keys is None:
        keys = encode_rows(rows)
    _check_norms(rows)
    roots = np.asarray(roots, dtype=np.int64).reshape(-1, rows.shape[1])
    return _image_permutations(keys, roots, lambda lo, hi: _cartan_integers(rows, roots[lo:hi]))


def merge_labels(labels: np.ndarray, a, b) -> np.ndarray:
    """The min-labels of the finest coarsening of labels that also joins
    each a[i] with b[i]; labels are min-labels, each index holding the
    lowest index of its class, and a and b broadcast to one shape.

    Each round keeps the pairs whose labels differ, hooks the higher label
    onto the lower (np.minimum.at keeps the lowest of several), and
    pointer-jumps until every label is a fixed point. When no pair differs
    the input itself is returned, so `is` tells a caller nothing merged.
    """
    while True:
        la, lb = np.broadcast_arrays(labels[a], labels[b])
        differ = la != lb
        if not differ.any():
            return labels
        la, lb = la[differ], lb[differ]
        labels = labels.copy()
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def orbit_labels(perms, n: int) -> np.ndarray:
    """Orbit id per index under generator permutations, a sequence or a
    (g, n) array: x is merged with s.x for every generator s, and orbits
    are numbered by their lowest index, which is the lex-least vertex of a
    lex-sorted vertex set."""
    perms = np.asarray(perms, dtype=np.int64).reshape(len(perms), n)
    lowest = merge_labels(np.arange(n, dtype=np.int64), np.arange(n), perms)
    return np.unique(lowest, return_inverse=True)[1].astype(np.int32)


# Int32 entries per carried block: each block's two temporaries stay at
# 1 MB, where the widest E8 k=6 level, 1,621 rows of 2,710, took 17.6 MB each.
_CARRY_BLOCK = 1 << 18


@dataclass(frozen=True)
class DescentForest:
    """A group action on 0..m-1 with its descent toward the dominant
    vertex of each orbit: the one object through which W, H and every
    stabilizer act.

    perms are the generators s_j as a (g, m) array of permutations and
    pairing the (m, g) pairings <x, a_j> (any positive multiple of them).
    parent[x] = s_j.x and gen[x] = j for the least j with <x, a_j> < 0;
    both are -1 at the roots, which pair with no generator negatively: the
    dominant vertices, one per orbit (Humphreys, *Reflection Groups and
    Coxeter Groups*, 1.12). s_j.x = x + |c| a_j with a_j lex-positive, so
    every parent lies higher in lex order than its child, and each root is
    the highest index of its orbit. (parent, gen) is a Schreier vector:
    x = s_gen[x].parent[x]. root and depth, the steps down from the root,
    come from pointer jumping.
    """

    perms: np.ndarray
    pairing: np.ndarray
    parent: np.ndarray
    gen: np.ndarray
    root: np.ndarray
    depth: np.ndarray

    @property
    def roots(self) -> np.ndarray:
        """The roots, ascending: one representative per orbit."""
        return np.flatnonzero(self.gen < 0)

    def sizes(self) -> np.ndarray:
        """Orbit size per root, in the order of roots."""
        return np.bincount(self.root, minlength=self.root.size)[self.roots]

    def levels(self) -> list[np.ndarray]:
        """The indices at depth 1, 2, ..., each level ascending."""
        order = np.argsort(self.depth, kind="stable")
        return np.split(order, np.cumsum(np.bincount(self.depth))[:-1])[1:]

    def stabilizer(self, x: int, ids: np.ndarray) -> DescentForest:
        """The forest of Stab(x) acting on the invariant ascending index set
        ids, x dominant: the parabolic subgroup generated by the generators
        orthogonal to x (Humphreys, 1.12), as permutations of positions in
        ids with their pairings restricted. An image outside ids raises
        GroupActionError.
        """
        gens = np.flatnonzero(self.pairing[x] == 0)
        position = np.full(self.root.size, -1, dtype=np.int64)
        position[ids] = np.arange(len(ids))
        local = position[self.perms[gens[:, None], ids]]
        if (local < 0).any():
            raise GroupActionError("generator image escapes the index subset; it is not invariant")
        return descent_forest(local, self.pairing[np.ix_(ids, gens)])

    def transport(self, reps, carried) -> np.ndarray:
        """Carry one index row per root down to every index of its tree.

        carried[i] is the row of reps[i]; reps must be the roots. Row x of
        the (m, width) int32 result is g_x applied to the row of its root r,
        where g_x.r = x is read off the forest, one level at a time in blocks
        of rows. Short rows are padded with r itself, which arrives at x as
        x: the padding marks self-pairs.
        """
        if not np.array_equal(np.sort(reps), self.roots):
            raise ValueError("carried rows must sit at the forest roots")
        width = max(map(len, carried), default=0)
        out = np.empty((self.root.size, width), dtype=np.int32)
        for r, row in zip(reps, carried):
            out[r, : len(row)] = row
            out[r, len(row) :] = r
        step = max(1, _CARRY_BLOCK // max(width, 1))
        for level in self.levels():
            for lo in range(0, level.size, step):
                rows = level[lo : lo + step]
                out[rows] = self.perms[self.gen[rows][:, None], out[self.parent[rows]]]
        return out

    def carry(self, x: int, row):
        """g_x applied to the index row of the root r of x's tree, where
        g_x.r = x: `transport` for one index."""
        path = []
        while self.gen[x] >= 0:
            path.append(self.gen[x])
            x = self.parent[x]
        for j in reversed(path):
            row = self.perms[j][row]
        return row


def descent_forest(perms: np.ndarray, pairing: np.ndarray) -> DescentForest:
    """The descent forest of generators given as a (g, m) array of
    permutations of 0..m-1 and an (m, g) array of pairings <x, a_j> (any
    positive multiple of them), which it keeps. A step that does not rise
    in index means the permutations are not the reflections the pairings
    describe, and raises GroupActionError.
    """
    m = pairing.shape[0]
    below = pairing < 0
    x = np.flatnonzero(below.any(axis=1))
    gen = np.full(m, -1, dtype=np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    if x.size:
        gen[x] = below[x].argmax(axis=1)
        parent[x] = perms[gen[x], x]
    if (parent[x] <= x).any():
        raise GroupActionError("a descent step does not rise in lex order; not a reflection")
    root = np.arange(m, dtype=np.int64)
    root[x] = parent[x]
    depth = np.zeros(m, dtype=np.int64)
    depth[x] = 1
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return DescentForest(perms, pairing, parent, gen, root, depth)
        depth += depth[root]
        root = up


def exact_quotient(weighted: int, k: int, what: str) -> int:
    """weighted / k, the number of k-element sets (SOS, cliques) from an
    orbit-weighted count that meets each once per element; a remainder
    means the count is wrong and raises ArithmeticError naming what."""
    quotient, rem = divmod(weighted, k)
    if rem:
        raise ArithmeticError(f"orbit-weighted {what} {weighted} not divisible by k={k}")
    return quotient


# The walk carries each vertex x as one int16 state row: x, then its Cartan
# integers <x, a_j^v>. The norm guard keeps |x_i| < 32 and the Cartan
# integers below 64 in magnitude, so no product below leaves int16.


def _dominant(state: list[int], dim: int, gens: list) -> tuple[list[int], int]:
    """The state of the dominant vertex of x's W-orbit, and the number of
    steps down to it: reflect in the least simple root whose Cartan integer
    is negative until none is. Each step removes one positive root from
    those with <x, a> < 0, so the step count is their number (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.6-1.12).

    gens[j] is a_j followed by the Cartan matrix row <a_j, a_i^v>, so s_j
    moves both parts of a state by <x, a_j^v> times gens[j].
    """
    steps = 0
    while True:
        j = next((j for j, c in enumerate(state[dim:]) if c < 0), None)
        if j is None:
            return state, steps
        c = state[dim + j]
        state = [a - c * b for a, b in zip(state, gens[j])]
        steps += 1


def _antipodal_depth(lam: list[int], dim: int, gens: list) -> int | None:
    """L, the depth of the orbit below its dominant vertex lam, when -lam
    lies in the orbit; None otherwise. -lam descends to lam exactly when it
    is in the orbit, and it is the lowest vertex, so its descent takes L
    steps: the positive roots not orthogonal to lam."""
    top, steps = _dominant([-a for a in lam], dim, gens)
    return steps if top == lam else None


def _children(level: np.ndarray, dim: int, gens: np.ndarray) -> np.ndarray:
    """The next level of the walk down an orbit, as state rows.

    s_j.x has Cartan integers coeff[x] - coeff[x, j] * <a_j, a_i^v>. Its
    parent in the descent of `_dominant` is s_j applied to it again when
    its least negative Cartan integer is at j; so s_j.x is a child of x
    exactly when <x, a_j^v> > 0 and that holds, and every vertex has one
    parent.
    """
    coeff = level[:, dim:]
    after = coeff[:, None, :] - coeff[:, :, None] * gens[:, dim:]  # after[x, j] of s_j.x
    x, j = np.nonzero((coeff > 0) & ((after < 0).argmax(axis=2) == np.arange(len(gens))))
    return level[x] - coeff[x, j, None] * gens[j]


def _walk_orbit(lam: list[int], depth: int | None, dim: int, gens: np.ndarray) -> np.ndarray:
    """The state rows of lam's W-orbit, level by level down the descent
    tree from the dominant vertex lam.

    depth is L when -lam is in the orbit (`_antipodal_depth`). Then
    x -> -x maps level d onto level L - d, so only the levels d <= L // 2
    are walked and the rest are their negatives.
    """
    levels = [np.array([lam], dtype=np.int16)]
    while depth is None or len(levels) <= depth // 2:
        level = _children(levels[-1], dim, gens)
        if not len(level):
            break
        levels.append(level)
    if depth is not None:
        levels += [-level for level in levels[: depth - depth // 2]]
    return np.concatenate(levels)


def weyl_closure(
    seeds: np.ndarray, simple_roots
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closure of the seed rows under the reflections in simple_roots, a
    base of the root system.

    Returns the lex-sorted rows, their keys, an orbit id per row numbered
    by lowest row, and the (n, rank) int16 Cartan integers <x, a_j^v> of
    every row with the simple roots.

    The closed fundamental chamber is a fundamental domain (Humphreys,
    1.12), so each orbit has one dominant vertex. The seeds are reduced to
    their distinct dominant vertices, and each orbit is walked down from
    its one (`_walk_orbit`); no level is deduplicated or looked up. The
    walk carries the Cartan integers, so they come with the rows and no
    product computes them, and the keys are encoded once, after the walks.
    """
    seed_rows = np.asarray(seeds, dtype=np.int64)
    dim = seed_rows.shape[1]
    simple = np.asarray(simple_roots, dtype=np.int64).reshape(-1, dim)
    # Every walked row has its seed's norm, so this bounds every row and
    # image digit, and keeps the walk's states within int16.
    _check_norms(seed_rows)
    seed_states = np.hstack([seed_rows, _cartan_integers(seed_rows, simple).T]).tolist()
    gens = np.hstack([simple, _cartan_integers(simple, simple).T]).astype(np.int16)
    gens_list = gens.tolist()
    tops = {tuple(lam): lam for lam, _ in (_dominant(s, dim, gens_list) for s in seed_states)}
    # An empty head keeps the concatenation below valid when there are no seeds.
    states = [np.empty((0, gens.shape[1]), dtype=np.int16)] + [
        _walk_orbit(lam, _antipodal_depth(lam, dim, gens_list), dim, gens) for lam in tops.values()
    ]
    sizes = [len(members) for members in states[1:]]
    states = np.concatenate(states)
    keys = encode_rows(states[:, :dim])
    order = np.argsort(keys)
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    bounds = np.cumsum([0] + sizes)
    lowest = [position[a:b].min() for a, b in zip(bounds[:-1], bounds[1:])]
    number = np.empty(len(sizes), dtype=np.int32)
    number[np.argsort(lowest)] = np.arange(len(sizes))
    orbit = np.repeat(number, sizes)[order]
    states = states[order]
    return states[:, :dim].astype(np.int64), keys[order], orbit, states[:, dim:]
