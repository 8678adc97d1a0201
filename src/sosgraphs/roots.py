"""Exact integer root systems: G2, F4, E6, E7, E8 plus A(l)/D(l) fixtures.

Every stored coordinate is twice the true value ("doubled coordinates"),
so half-integer roots and F4 short roots are exact machine integers.
Doubled inner products are 4x the true inner product; doubled squared
norms of norm-2 roots equal 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


def dot(v: RootVector, w: RootVector) -> int:
    """Doubled-coordinate dot product (4x the true inner product)."""
    if len(v) != len(w):
        raise RootSystemError(f"dimension mismatch: {len(v)} vs {len(w)}")
    return sum(a * b for a, b in zip(v, w))


def negate(v: RootVector) -> RootVector:
    return tuple(-a for a in v)


def add(v: RootVector, w: RootVector) -> RootVector:
    return tuple(a + b for a, b in zip(v, w))


def sub(v: RootVector, w: RootVector) -> RootVector:
    return tuple(a - b for a, b in zip(v, w))


def key_offset(dim: int) -> int:
    """key(u - v) == key(u) - key(v) + key_offset(dim), keys from encode_rows."""
    off = 0
    for _ in range(dim):
        off = off * KEY_BASE + KEY_SHIFT
    return off


def encode_rows(rows: np.ndarray) -> np.ndarray:
    """Injective int64 key per row of an (m, dim) int array; numeric order
    equals lex order of rows. Raises ValueError on a coordinate outside
    the digit range [-KEY_SHIFT, KEY_BASE - KEY_SHIFT)."""
    if rows.size and (rows.min() < -KEY_SHIFT or rows.max() >= KEY_BASE - KEY_SHIFT):
        raise ValueError(
            f"coordinate outside the key digit range [{-KEY_SHIFT}, {KEY_BASE - KEY_SHIFT})"
        )
    m, dim = rows.shape
    keys = np.zeros(m, dtype=np.int64)
    for j in range(dim):
        keys *= KEY_BASE
        keys += rows[:, j].astype(np.int64) + KEY_SHIFT
    return keys


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

    @cached_property
    def root_set(self) -> frozenset[RootVector]:
        return frozenset(self.roots)

    @cached_property
    def root_index(self) -> dict[RootVector, int]:
        return {r: i for i, r in enumerate(self.roots)}

    def __len__(self) -> int:
        return len(self.roots)


def strongly_orthogonal(rs: RootSystem, alpha: RootVector, beta: RootVector) -> bool:
    """True iff neither sum nor difference is a root.

    Antipodal and equal pairs are excluded: a strongly orthogonal subset
    consists of linearly independent roots, and {a, -a} sums to zero.
    """
    if alpha not in rs.root_set or beta not in rs.root_set:
        raise RootSystemError("strongly_orthogonal requires roots of the system")
    if alpha == beta or alpha == negate(beta):
        return False
    return add(alpha, beta) not in rs.root_set and sub(alpha, beta) not in rs.root_set


def reflect(alpha: RootVector, v: RootVector) -> RootVector:
    """Image of v under the reflection through alpha's hyperplane.

    Exact for any vector in the root lattice (the Cartan coefficient is
    asserted integral).
    """
    num = 2 * dot(v, alpha)
    den = dot(alpha, alpha)
    coeff, rem = divmod(num, den)
    if rem:
        raise RootSystemError(f"vector {v} not in the lattice of {alpha}")
    return tuple(a - coeff * b for a, b in zip(v, alpha))


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


def reflect_rows(rows: np.ndarray, alpha: RootVector) -> np.ndarray:
    """Vectorized reflection of lattice vectors (exact int64)."""
    a = np.asarray(alpha, dtype=np.int64)
    aa = int(a @ a)
    num = 2 * (rows.astype(np.int64) @ a)
    coeff, rem = np.divmod(num, aa)
    if rem.any():
        raise RootSystemError("vector outside the root lattice")
    return rows - coeff[:, None] * a[None, :]
