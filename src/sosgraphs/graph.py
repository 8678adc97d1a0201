"""Gamma graphs: edges join vertex pairs whose difference is again a vertex.

Edge tests rely on an affine int64 encoding of doubled-coordinate
vectors: key(u) - key(v) + offset equals key(u - v) whenever coordinates
stay in range, so a block of pairwise difference tests is one subtraction
plus a binary search against the sorted vertex keys (`key_index`).

Graph parameters come from the Weyl-orbit quotient: W acts by
automorphisms, so degrees are read at one vertex per orbit and the
components are the finest W-invariant equivalence containing the edges
at those vertices. The explicit edge build (`build_gamma`) collects the
edges of blocks of index ranges in memory and assembles CSR with sorted
neighbor lists; it serves the graph file, DOT export and the isomorphism
checks.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from sosgraphs.roots import RootSystem, encode_rows, key_offset, parse_label, reflect_rows
from sosgraphs.sos import VertexSet, vertex_set

MAGIC = b"SOSG"
FORMAT_VERSION = 1

DEFAULT_BLOCK_SIZE = 4096


class GraphFileError(IOError):
    """Bad magic, version mismatch, or checksum failure."""


class GroupActionError(ValueError):
    """A generator maps some indexed vertex outside the indexed set."""


class _OrbitMixin:
    @property
    def n(self) -> int:
        return len(self.vertices)

    def orbit_sizes(self) -> list[int]:
        return np.bincount(self.orbit_label).tolist()

    def orbit_representatives(self) -> list[int]:
        """Lowest vertex index within each orbit label."""
        return np.unique(self.orbit_label, return_index=True)[1].tolist()


@dataclass
class SOSGraph(_OrbitMixin):
    """Vertices, CSR adjacency and Weyl orbit labels of one gamma graph."""

    label: str
    k: int
    vertices: VertexSet
    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (2m,) int32, sorted within each row
    orbit_label: np.ndarray  # (n,) int32

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


@dataclass
class MembershipGraph(_OrbitMixin):
    """Adjacency-free view: neighborhoods computed from vertex keys on demand.

    Supports stats and the clique and sunflower censuses without the
    quadratic edge build; serialization requires a full SOSGraph.
    """

    label: str
    k: int
    vertices: VertexSet
    orbit_label: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        keys = self.vertices.keys()
        hit = key_index(keys, keys[v] - keys + key_offset(self.vertices.dim)) >= 0
        hit[v] = False
        return np.flatnonzero(hit).astype(np.int32)


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    min_degree: int
    max_degree: int
    is_regular: bool
    component_count: int
    component_sizes: tuple[int, ...]
    isolated_vertex_count: int


def key_index(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position of each query key in the sorted key array, -1 where absent."""
    query = np.asarray(query, dtype=np.int64)
    if keys.size == 0:
        return np.full(query.shape, -1, dtype=np.int64)
    pos = np.searchsorted(keys, query)
    np.minimum(pos, keys.size - 1, out=pos)
    pos[keys[pos] != query] = -1
    return pos


def _blocks(n: int, size: int):
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _block_edges(keys: np.ndarray, off: int, i0: int, i1: int, block_size: int):
    """All edges (u, v) with u in [i0, i1), v > u, as one (u, v) chunk pair."""
    n = keys.size
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ki = keys[i0:i1]
    for j0, j1 in _blocks(n, block_size):
        if j1 <= i0:
            continue
        diff = ki[:, None] - keys[None, j0:j1] + off
        r, c = np.nonzero(key_index(keys, diff) >= 0)
        u = r.astype(np.int64) + i0
        v = c.astype(np.int64) + j0
        keep = v > u
        us.append(u[keep].astype(np.int32))
        vs.append(v[keep].astype(np.int32))
    if not us:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    # j-blocks restart u; re-sort so chunks are u-ascending with v ascending per u
    order = np.argsort(u, kind="stable")
    return u[order], v[order]


def _fill_rows(indices: np.ndarray, cursor: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Scatter dst into CSR rows; src must be sorted (dst sorted within src)."""
    if src.size == 0:
        return
    uniq, starts, counts = np.unique(src, return_index=True, return_counts=True)
    ranks = np.arange(src.size, dtype=np.int64) - np.repeat(starts, counts)
    indices[cursor[src] + ranks] = dst
    cursor[uniq] += counts


def _assemble_csr(n: int, chunks: list) -> tuple[np.ndarray, np.ndarray]:
    """Two passes over (u, v) chunks; emits sorted neighbor lists.

    Relies on the block generation order: within each chunk u is ascending
    with v ascending per u, reversed edges land in already-sorted order
    when applied before forward ones.
    """
    deg = np.zeros(n, dtype=np.int64)
    for u, v in chunks:
        deg += np.bincount(u, minlength=n)
        deg += np.bincount(v, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    cursor = indptr[:-1].copy()
    for u, v in chunks:
        order = np.argsort(v, kind="stable")
        _fill_rows(indices, cursor, v[order], u[order])
        _fill_rows(indices, cursor, u, v)
    if not np.array_equal(cursor, indptr[1:]):
        raise AssertionError("CSR fill incomplete; edge chunks out of order")
    return indptr, indices


def vertex_permutation(keys: np.ndarray, images: np.ndarray) -> np.ndarray:
    """A generator's action as an index permutation of a sorted key array.

    images holds the generator's image of each indexed row; perm[i] is the
    position of images[i]. An image outside the set is a hard error, so an
    injective generator always yields a permutation.
    """
    pos = key_index(keys, encode_rows(images))
    if (pos < 0).any():
        raise GroupActionError("generator image escapes the vertex set; the set is not closed")
    return pos


def orbit_labels(perms: list[np.ndarray], n: int) -> np.ndarray:
    """Orbit id per index: components of the generator permutations.

    Orbits are numbered by their lowest index, which is the lex-least
    vertex of a lex-sorted vertex set.
    """
    if not perms:
        return np.arange(n, dtype=np.int32)
    cols = []
    for perm in perms:
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n)
        cols += [perm, inverse]
    indices = np.stack(cols, axis=1).ravel()
    indptr = np.arange(0, indices.size + 1, len(cols))
    lowest = _component_labels(n, indptr, indices)
    return np.unique(lowest, return_inverse=True)[1].astype(np.int32)


def reflection_permutations(roots, rows: np.ndarray) -> list[np.ndarray]:
    """The reflections in roots as permutations of lex-sorted rows.

    Each reflection must map the rows onto themselves (SOS sums map to SOS
    sums); an image outside raises GroupActionError.
    """
    rows = rows.astype(np.int64)
    keys = encode_rows(rows)
    return [vertex_permutation(keys, reflect_rows(rows, alpha)) for alpha in roots]


def weyl_orbit_labels(rs: RootSystem, vertices: VertexSet) -> np.ndarray:
    """Per-vertex Weyl orbit ids, numbered by their lex-least vertex."""
    return orbit_labels(reflection_permutations(rs.simple_roots, vertices.vectors), len(vertices))


def membership_graph(rs: RootSystem, k: int) -> MembershipGraph:
    """Vertex set plus orbit labels, skipping the pairwise edge build."""
    vs = vertex_set(rs, k)
    return MembershipGraph(
        label=rs.label, k=k, vertices=vs, orbit_label=weyl_orbit_labels(rs, vs)
    )


def build_gamma(rs: RootSystem, k: int, *, block_size: int = DEFAULT_BLOCK_SIZE) -> SOSGraph:
    """Build the gamma graph for rs at level k with its explicit edge list.

    Edges are generated in (i-block, j-block) batches held in memory; the
    result is independent of block size.
    """
    vs = vertex_set(rs, k)
    n = len(vs)
    keys = vs.keys()
    off = key_offset(rs.ambient_dim)
    if n and not np.array_equal(np.sort(encode_rows(-vs.vectors.astype(np.int64))), keys):
        raise ValueError("vertex set not closed under negation; adjacency would not be symmetric")
    chunks = [_block_edges(keys, off, i0, i1, block_size) for i0, i1 in _blocks(n, block_size)]
    indptr, indices = _assemble_csr(n, chunks)
    return SOSGraph(
        label=rs.label, k=k, vertices=vs, indptr=indptr, indices=indices,
        orbit_label=weyl_orbit_labels(rs, vs),
    )


def _component_labels(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
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


def _pair_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest index of each vertex's component in the graph of pairs (a, b)."""
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # The stable sort measured about twice as fast as the default on these
    # partly presorted pair lists (E8 k=6 quotient: 2.6 s against 4.9 s).
    return _component_labels(n, indptr, dst[np.argsort(src, kind="stable")])


def _quotient_components(g: SOSGraph | MembershipGraph, reps: list[int], hoods) -> np.ndarray:
    """Lowest index of each vertex's component, from the W-orbit quotient.

    W acts by automorphisms, so the component partition is W-invariant,
    and every edge is w.(an edge at an orbit representative). The
    components are therefore the finest W-invariant equivalence holding
    the representatives' edges: propagate x ~ L[x] to s.x ~ s.L[x] for
    each simple reflection s until the labels L stop changing.
    """
    n = g.n
    perms = reflection_permutations(parse_label(g.label).simple_roots, g.vertices.vectors)
    rep_src = np.repeat(np.asarray(reps, dtype=np.int64), [h.size for h in hoods])
    every = np.arange(n, dtype=np.int64)
    labels = every
    while True:
        fresh = _pair_components(
            n,
            np.concatenate([rep_src, every, *perms]),
            np.concatenate([*hoods, labels, *(perm[labels] for perm in perms)]),
        )
        if np.array_equal(fresh, labels):
            return labels
        labels = fresh


def stats(g: SOSGraph | MembershipGraph) -> GraphStats:
    """Graph parameters from one neighborhood per W-orbit, on either view.

    Degrees are constant on W-orbits; m = sum |O| deg(rep_O) / 2 must
    divide exactly.
    """
    n = g.n
    if n == 0:
        return GraphStats(0, 0, 0, 0, True, 0, (), 0)
    reps = g.orbit_representatives()
    hoods = [g.neighbors(v) for v in reps]
    deg = np.array([h.size for h in hoods], dtype=np.int64)
    orbit_sizes = np.bincount(g.orbit_label)
    m, rem = divmod(int(orbit_sizes @ deg), 2)
    if rem:
        raise ArithmeticError(f"orbit-weighted degree sum {2 * m + rem} is odd")
    sizes = np.bincount(_quotient_components(g, reps, hoods))
    sizes = tuple(sorted((int(s) for s in sizes[sizes > 0]), reverse=True))
    return GraphStats(
        n=n,
        m=m,
        min_degree=int(deg.min()),
        max_degree=int(deg.max()),
        is_regular=bool(deg.min() == deg.max()),
        component_count=len(sizes),
        component_sizes=sizes,
        isolated_vertex_count=int(orbit_sizes[deg == 0].sum()),
    )


def edge_keys_membership(g: SOSGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized edge test for index arrays u, v (difference membership)."""
    keys = g.vertices.keys()
    return key_index(keys, keys[u] - keys[v] + key_offset(g.vertices.dim)) >= 0


class _ChecksumWriter:
    def __init__(self, fh):
        self.fh = fh
        self.crc = 0

    def write(self, data: bytes):
        self.fh.write(data)
        self.crc = zlib.crc32(data, self.crc)


def serialize(g: SOSGraph, path) -> None:
    """Write the graph file: magic, version, header, blocks, CRC32 trailer."""
    label = g.label.encode("utf-8")
    with open(path, "wb") as fh:
        out = _ChecksumWriter(fh)
        out.write(MAGIC)
        out.write(FORMAT_VERSION.to_bytes(4, "little"))
        out.write(len(label).to_bytes(1, "little"))
        out.write(label)
        out.write(g.k.to_bytes(4, "little"))
        out.write(g.n.to_bytes(8, "little"))
        out.write(g.edge_count.to_bytes(8, "little"))
        out.write(g.vertices.dim.to_bytes(4, "little"))
        out.write(g.vertices.vectors.astype("<i4").tobytes())
        out.write(g.vertices.multiplicity.astype("<i8").tobytes())
        out.write(g.orbit_label.astype("<i4").tobytes())
        out.write(g.indptr.astype("<i8").tobytes())
        out.write(g.indices.astype("<i4").tobytes())
        fh.write(out.crc.to_bytes(4, "little"))


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise GraphFileError("truncated graph file (checksum cannot match)")
    return data


def deserialize(path) -> SOSGraph:
    with open(path, "rb") as fh:
        crc = 0

        def take(count: int) -> bytes:
            nonlocal crc
            data = _read_exact(fh, count)
            crc = zlib.crc32(data, crc)
            return data

        if take(4) != MAGIC:
            raise GraphFileError("not a graph file (bad magic)")
        version = int.from_bytes(take(4), "little")
        if version != FORMAT_VERSION:
            raise GraphFileError(f"unsupported graph file version {version}")
        label_len = int.from_bytes(take(1), "little")
        label = take(label_len).decode("utf-8")
        k = int.from_bytes(take(4), "little")
        n = int.from_bytes(take(8), "little")
        m = int.from_bytes(take(8), "little")
        dim = int.from_bytes(take(4), "little")
        vectors = np.frombuffer(take(n * dim * 4), dtype="<i4").reshape(n, dim)
        multiplicity = np.frombuffer(take(n * 8), dtype="<i8")
        orbit = np.frombuffer(take(n * 4), dtype="<i4")
        indptr = np.frombuffer(take((n + 1) * 8), dtype="<i8")
        indices = np.frombuffer(take(2 * m * 4), dtype="<i4")
        stored = int.from_bytes(_read_exact(fh, 4), "little")
        if stored != crc:
            raise GraphFileError("graph file checksum mismatch")
        if fh.read(1):
            raise GraphFileError("trailing bytes after checksum")
    vs = VertexSet(
        label=label,
        k=k,
        vectors=vectors.astype(np.int32),
        multiplicity=multiplicity.astype(np.int64),
    )
    return SOSGraph(
        label=label,
        k=k,
        vertices=vs,
        indptr=indptr.astype(np.int64),
        indices=indices.astype(np.int32),
        orbit_label=orbit.astype(np.int32),
    )


def file_checksum(path) -> str:
    """Payload CRC32 (the stored trailer value); identifies file content.

    The CRC of a payload plus its own little-endian CRC is the constant
    residue 0x2144df1c, so the whole-file CRC would not discriminate.
    """
    size = os.path.getsize(path)
    if size < 4:
        raise GraphFileError("file too short to carry a checksum")
    crc = 0
    remaining = size - 4
    with open(path, "rb") as fh:
        while remaining:
            chunk = fh.read(min(1 << 20, remaining))
            if not chunk:
                raise GraphFileError("short read while checksumming")
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
        trailer = int.from_bytes(fh.read(4), "little")
    if trailer != crc:
        raise GraphFileError("graph file checksum mismatch")
    return f"{crc:08x}"


def to_dot(g: SOSGraph) -> str:
    """DOT export for external drawing; vertex names list signed supports."""
    def name(row) -> str:
        parts = []
        for i, val in enumerate(row, start=1):
            if val:
                parts.append(f"{'+' if val > 0 else '-'}{i}")
        return "".join(parts) or "0"

    lines = [f'graph "{g.label}_k{g.k}" {{']
    for v in range(g.n):
        lines.append(f'  v{v} [label="{name(g.vertices.vectors[v])}"];')
    for v in range(g.n):
        for w in g.neighbors(v):
            if w > v:
                lines.append(f"  v{v} -- v{int(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
