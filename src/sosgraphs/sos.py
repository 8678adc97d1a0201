"""Enumeration of strongly orthogonal subsets and their deduplicated sums.

SOS enumeration is ordered depth-first extension over bitset candidate
rows indexed by lex-sorted root order, so streams are deterministic.
Vertex sets for all depths up to k are collected in a single pass; sums
are deduplicated through int64 keys and chunk-wise compaction to keep
memory flat on the deep E8 levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sosgraphs.roots import (
    RootSystem,
    RootVector,
    KEY_BASE,
    KEY_SHIFT,
    encode_rows,
    key_offset,
    strongly_orthogonal,
)

# Compact dedup buffers once this many raw keys accumulate.
_COMPACT_AT = 4_000_000
# Vectorize child recording when a candidate set has at least this many bits.
_VEC_MIN = 16


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated sums of k-element SOS with multiplicities.

    vectors rows are doubled coordinates in lex order; multiplicity[i]
    counts the SOS summing to vectors[i].
    """

    label: str
    k: int
    vectors: np.ndarray  # (n, dim) int32, lex-sorted rows
    multiplicity: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def keys(self) -> np.ndarray:
        return encode_rows(self.vectors)

    def sos_count(self) -> int:
        return int(self.multiplicity.sum())

    def as_tuples(self) -> list[RootVector]:
        return [tuple(int(x) for x in row) for row in self.vectors]


def strong_orthogonality_graph(rs: RootSystem) -> np.ndarray:
    """Boolean adjacency over rs.roots: edges join strongly orthogonal pairs."""
    n = len(rs.roots)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if strongly_orthogonal(rs, rs.roots[i], rs.roots[j]):
                adj[i, j] = adj[j, i] = True
    return adj


@lru_cache(maxsize=None)
def _so_bitrows(rs: RootSystem) -> tuple[int, ...]:
    """Bitset rows of the strong orthogonality graph, lex root order."""
    adj = strong_orthogonality_graph(rs)
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def enumerate_sos(rs: RootSystem, k: int):
    """Yield every k-element SOS exactly once, lexicographically.

    Each item is a tuple of k root vectors in ascending lex order. The
    stream is empty when k exceeds the maximum SOS size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > rs.max_sos_size:
        return
    rows = _so_bitrows(rs)
    roots = rs.roots
    n = len(roots)
    above = [(~((1 << (i + 1)) - 1)) & ((1 << n) - 1) for i in range(n)]

    def extend(chosen: list[int], cand: int):
        if len(chosen) == k:
            yield tuple(roots[i] for i in chosen)
            return
        c = cand
        while c:
            b = c & -c
            j = b.bit_length() - 1
            c ^= b
            chosen.append(j)
            yield from extend(chosen, cand & rows[j] & above[j])
            chosen.pop()

    yield from extend([], (1 << n) - 1)


class _DedupSink:
    """Accumulates int64 keys, compacting to (sorted keys, counts) chunks."""

    def __init__(self):
        self.scalars: list[int] = []
        self.arrays: list[np.ndarray] = []
        self.keys = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)
        self.pending = 0

    def push_array(self, arr: np.ndarray):
        self.arrays.append(arr)
        self.pending += arr.size
        if self.pending >= _COMPACT_AT:
            self.compact()

    def compact(self):
        if self.scalars:
            self.arrays.append(np.array(self.scalars, dtype=np.int64))
            self.scalars.clear()
        if not self.arrays:
            return
        fresh, fresh_counts = np.unique(np.concatenate(self.arrays), return_counts=True)
        self.arrays.clear()
        self.pending = 0
        if self.keys.size == 0:
            self.keys, self.counts = fresh, fresh_counts
            return
        merged = np.concatenate([self.keys, fresh])
        weights = np.concatenate([self.counts, fresh_counts])
        order = np.argsort(merged, kind="stable")
        merged, weights = merged[order], weights[order]
        uniq_mask = np.empty(merged.size, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(merged[1:], merged[:-1], out=uniq_mask[1:])
        starts = np.flatnonzero(uniq_mask)
        sums = np.add.reduceat(weights, starts)
        self.keys, self.counts = merged[starts], sums

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        self.compact()
        return self.keys, self.counts


def _bit_indices(x: int, nbytes: int) -> np.ndarray:
    raw = x.to_bytes(nbytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.flatnonzero(bits)


def _decode_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    rows = np.empty((keys.size, dim), dtype=np.int32)
    rem = keys.copy()
    for j in range(dim - 1, -1, -1):
        rem, digit = np.divmod(rem, KEY_BASE)
        rows[:, j] = digit - KEY_SHIFT
    return rows


def _collect_vertex_sets(rs: RootSystem, kmax: int) -> dict[int, VertexSet]:
    """One DFS pass recording SOS sum keys at every depth <= kmax."""
    rows = _so_bitrows(rs)
    n = len(rs.roots)
    dim = rs.ambient_dim
    nbytes = (n + 7) // 8
    root_keys = encode_rows(np.asarray(rs.roots, dtype=np.int64)).tolist()
    root_keys_arr = np.array(root_keys, dtype=np.int64)
    above = [(~((1 << (i + 1)) - 1)) & ((1 << n) - 1) for i in range(n)]
    adj_above = [rows[i] & above[i] for i in range(n)]
    sinks = {d: _DedupSink() for d in range(1, kmax + 1)}

    def dfs(cand: int, ksum: int, depth: int):
        child_depth = depth + 1
        sink = sinks[child_depth]
        if cand.bit_count() >= _VEC_MIN:
            idx = _bit_indices(cand, nbytes)
            sink.push_array(root_keys_arr[idx] + ksum)
            if child_depth < kmax:
                for j in idx.tolist():
                    sub = cand & adj_above[j]
                    if sub:
                        dfs(sub, ksum + root_keys[j], child_depth)
        else:
            buf = sink.scalars
            c = cand
            if child_depth < kmax:
                while c:
                    b = c & -c
                    j = b.bit_length() - 1
                    c ^= b
                    buf.append(ksum + root_keys[j])
                    sub = cand & adj_above[j]
                    if sub:
                        dfs(sub, ksum + root_keys[j], child_depth)
            else:
                while c:
                    b = c & -c
                    j = b.bit_length() - 1
                    c ^= b
                    buf.append(ksum + root_keys[j])
            if len(buf) >= _COMPACT_AT:
                sink.compact()

    if kmax >= 1:
        dfs((1 << n) - 1, 0, 0)

    out = {}
    off = key_offset(dim)
    for d in range(1, kmax + 1):
        keys, counts = sinks[d].finalize()
        vertex_keys = keys - (d - 1) * off
        vectors = _decode_keys(vertex_keys, dim)
        out[d] = VertexSet(label=rs.label, k=d, vectors=vectors, multiplicity=counts)
    return out


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
        )
    hit = _VCACHE.get((rs.label, k))
    if hit is not None:
        return hit
    for depth, vs in _collect_vertex_sets(rs, k).items():
        _VCACHE.setdefault((rs.label, depth), vs)
    return _VCACHE[(rs.label, k)]


def sos_count(rs: RootSystem, k: int) -> int:
    """|SOS(R, k)| without materializing the stream."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > rs.max_sos_size:
        return 0
    return vertex_set(rs, k).sos_count()
