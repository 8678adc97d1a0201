"""Gamma graphs: edges join vertex pairs whose difference is again a vertex.

A graph is its vertex set (`VertexSet.adjacent` is the edge test), plus
the CSR edge list where that list is the product.

W acts by automorphisms, so everything here starts from the
neighbourhoods at one vertex per W-orbit. Degrees are read there, and the
components are the finest W-invariant equivalence containing the edges
at those vertices. The explicit edge list (`build_gamma`) carries each
representative's neighbourhood to every vertex of its orbit along a
Schreier vector, N(g.r) = g.N(r) (`transport`); it serves the graph file,
DOT export and the isomorphism checks.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from sosgraphs.roots import (
    GroupActionError,
    RootSystem,
    component_labels,
    encode_rows,
    orbit_labels,
    parse_label,
    positive_roots,
    reflection_permutations,
)
from sosgraphs.sos import VertexSet, vertex_set

MAGIC = b"SOSG"
FORMAT_VERSION = 1


class GraphFileError(IOError):
    """Bad magic, version mismatch, or checksum failure."""


@dataclass
class MembershipGraph:
    """The gamma graph of a vertex set, with no explicit edge list.

    Neighbourhoods come from the vertex set's edge test on demand; that
    serves stats and the clique and sunflower censuses. Serialization
    needs the edge list of an SOSGraph.
    """

    vertices: VertexSet

    @property
    def label(self) -> str:
        return self.vertices.label

    @property
    def k(self) -> int:
        return self.vertices.k

    @property
    def orbit_label(self) -> np.ndarray:
        """W-orbit id per vertex, numbered by lowest index."""
        return self.vertices.orbit

    @property
    def n(self) -> int:
        return len(self.vertices)

    def orbit_sizes(self) -> list[int]:
        return np.bincount(self.orbit_label).tolist()

    def orbit_representatives(self) -> list[int]:
        """Lowest vertex index within each orbit label."""
        return np.unique(self.orbit_label, return_index=True)[1].tolist()

    def neighbors(self, v: int) -> np.ndarray:
        hit = self.vertices.adjacent(v, slice(None))
        hit[v] = False
        return np.flatnonzero(hit).astype(np.int32)


@dataclass
class SOSGraph(MembershipGraph):
    """A gamma graph with its CSR edge list."""

    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (2m,) int32, sorted within each row

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


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


def schreier_vector(perms, roots, n: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Breadth-first Schreier vector of the generator permutations, a
    sequence or a (g, n) array.

    A BFS from each root records, for every index x it reaches, its
    parent and the generator mapping the parent to it:
    perms[gen[x]][parent[x]] == x (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, 4.1). Roots keep parent and gen -1.
    Returns parent, gen and the BFS levels below the roots, in order.
    """
    perms = np.asarray(perms)
    parent = np.full(n, -1, dtype=np.int64)
    gen = np.full(n, -1, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    level = np.asarray(roots, dtype=np.int64)
    reached[level] = True
    levels = []
    while level.size:
        images = perms[:, level].ravel()
        fresh = np.flatnonzero(~reached[images])
        images, first = np.unique(images[fresh], return_index=True)
        first = fresh[first]
        reached[images] = True
        parent[images] = level[first % level.size]
        gen[images] = first // level.size
        level = images
        if level.size:
            levels.append(level)
    return parent, gen, levels


def transport(perms, reps: list[int], carried) -> np.ndarray:
    """Carry one index row per orbit representative to every vertex of its orbit.

    carried[i] is the row of reps[i]. Row x of the (n, width) int32 result
    is g_x applied to the row of x's representative r, where g_x.r = x is
    read off a Schreier vector of the generator permutations, one BFS
    level at a time. Short rows are padded with r itself, which arrives at
    x as x: the padding marks self-pairs.
    """
    stacked = np.asarray(perms, dtype=np.int32)
    n = stacked.shape[1]
    out = np.empty((n, max(map(len, carried), default=0)), dtype=np.int32)
    for r, row in zip(reps, carried):
        out[r, : len(row)] = row
        out[r, len(row) :] = r
    parent, gen, levels = schreier_vector(stacked, reps, n)
    for level in levels:
        out[level] = stacked[gen[level][:, None], out[parent[level]]]
    return out


def stabilizer_action(
    g: MembershipGraph, v: int, nb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The generators of Stab_W(v) acting on nb, as root rows and as
    permutations of nb (one row each).

    They are the reflections in the positive roots orthogonal to vertex v,
    one per +- pair (Steinberg); nb must be an invariant, ascending index
    set, and an image outside it is a hard error.
    """
    positive = positive_roots(parse_label(g.label))
    roots = positive[~(positive @ g.vertices.vectors[v].astype(np.int64)).astype(bool)]
    return roots, reflection_permutations(roots, g.vertices.vectors[nb], g.vertices.keys()[nb])


def restricted_orbits(perms, members: np.ndarray) -> tuple[list[int], list[int]]:
    """Representatives (lowest positions in members) and sizes of the
    orbits of the generator permutations on the ascending index subset
    members, in order of representative.

    Each permutation is restricted to members through one local index map,
    with no new lookup; an image outside members is a hard error.
    """
    restricted = []
    if len(perms):
        local = np.full(perms[0].size, -1, dtype=np.int64)
        local[members] = np.arange(members.size)
        restricted = [local[perm[members]] for perm in perms]
        if any((perm < 0).any() for perm in restricted):
            raise GroupActionError("generator image escapes the index subset; it is not invariant")
    labels = orbit_labels(restricted, members.size)
    return np.unique(labels, return_index=True)[1].tolist(), np.bincount(labels).tolist()


def weyl_orbit_labels(rs: RootSystem, vertices: VertexSet) -> np.ndarray:
    """Per-vertex Weyl orbit ids, numbered by their lex-least vertex."""
    return orbit_labels(reflection_permutations(rs.simple_roots, vertices.vectors), len(vertices))


def membership_graph(rs: RootSystem, k: int) -> MembershipGraph:
    """The level-k vertex set as a graph, with no explicit edge list."""
    return MembershipGraph(vertex_set(rs, k))


def build_gamma(rs: RootSystem, k: int) -> SOSGraph:
    """Build the gamma graph for rs at level k with its explicit edge list.

    The neighbourhood of each W-orbit representative is carried to every
    vertex of its orbit (`transport`); each row is then sorted and the
    padding, which arrives at x as x itself, is dropped.
    """
    g = membership_graph(rs, k)
    vs = g.vertices
    if g.n and not np.array_equal(np.sort(encode_rows(-vs.vectors.astype(np.int64))), vs.keys()):
        raise ValueError("vertex set not closed under negation; adjacency would not be symmetric")
    reps = g.orbit_representatives()
    hoods = [g.neighbors(r) for r in reps]
    rows = transport(vs.reflections(), reps, hoods)
    rows.sort(axis=1)
    if all(h.size == rows.shape[1] for h in hoods):
        # No row is padded, so the sorted rows already are the edge list;
        # a keep mask and its copy would double the E8 k=6 peak.
        indptr = np.arange(g.n + 1, dtype=np.int64) * rows.shape[1]
        return SOSGraph(vertices=vs, indptr=indptr, indices=rows.reshape(-1))
    keep = rows != np.arange(g.n, dtype=np.int32)[:, None]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return SOSGraph(vertices=vs, indptr=indptr, indices=rows[keep])


def _pair_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest index of each vertex's component in the graph of pairs (a, b)."""
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # The stable sort measured about twice as fast as the default on these
    # partly presorted pair lists (E8 k=6 quotient: 2.6 s against 4.9 s).
    return component_labels(n, indptr, dst[np.argsort(src, kind="stable")])


def _transported_components(
    g: MembershipGraph, perms: list[np.ndarray], reps: list[int], hoods, rep_src
) -> np.ndarray:
    """Lowest index per component of the representatives' edges plus, at
    every vertex x = g_x.r, the edges x ~ g_x.w_j: one neighbour w_j per
    Stab_W(r)-orbit of N(r), carried along a Schreier vector of r's orbit.

    A helper of its own, so that its n x (seeds) array is freed before
    the fixed-point loop runs.
    """
    n = g.n
    seeds = [
        nb[restricted_orbits(stabilizer_action(g, r, nb)[1], np.arange(nb.size))[0]]
        for r, nb in zip(reps, hoods)
    ]
    carried = transport(perms, reps, seeds)
    return _pair_components(
        n,
        np.concatenate([rep_src, np.repeat(np.arange(n, dtype=np.int64), carried.shape[1])]),
        np.concatenate([*hoods, carried.ravel()]),
    )


def quotient_components(g: MembershipGraph, reps: list[int], hoods) -> np.ndarray:
    """Lowest index of each vertex's component, from the W-orbit quotient.

    W acts by automorphisms, so the component partition is W-invariant,
    and every edge is w.(an edge at an orbit representative). The
    components are therefore the finest W-invariant equivalence holding
    the representatives' edges.

    The search starts from edges at every vertex (`_transported_components`);
    they are edges, so they never merge too much. Then x ~ L[x] is
    propagated to s.x ~ s.L[x] for each simple reflection s until the
    labels L stop changing; that fixed point is W-invariant and holds every
    edge at the representatives, so it is exact. A round changes nothing
    exactly when L[s.x] == L[s.L[x]] for every x and s (L always holds the
    representatives' edges), so that test ends the loop without the round.
    """
    n = g.n
    perms = g.vertices.reflections()
    rep_src = np.repeat(np.asarray(reps, dtype=np.int64), [h.size for h in hoods])
    every = np.arange(n, dtype=np.int64)
    labels = _transported_components(g, perms, reps, hoods, rep_src)
    while not all(np.array_equal(labels[perm], labels[perm[labels]]) for perm in perms):
        labels = _pair_components(
            n,
            np.concatenate([rep_src, every, *perms]),
            np.concatenate([*hoods, labels, *(perm[labels] for perm in perms)]),
        )
    return labels


def stats(g: MembershipGraph) -> GraphStats:
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
    sizes = np.bincount(quotient_components(g, reps, hoods))
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


class _ChecksumWriter:
    def __init__(self, fh):
        self.fh = fh
        self.crc = 0

    def write(self, data: bytes):
        self.fh.write(data)
        self.crc = zlib.crc32(data, self.crc)


def serialize(g: SOSGraph, path) -> str:
    """Write the graph file: magic, version, header, blocks, CRC32 trailer.

    Returns the payload CRC32 as `file_checksum` reports it.
    """
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
        blocks = [(g.vertices.vectors, "<i4"), (g.vertices.multiplicity, "<i8"),
                  (g.orbit_label, "<i4"), (g.indptr, "<i8"), (g.indices, "<i4")]
        for arr, dtype in blocks:
            # A byte view, not a copy: the E8 k=6 edge list alone is 655 MB.
            out.write(memoryview(np.ascontiguousarray(arr, dtype=dtype).reshape(-1)).cast("B"))
        fh.write(out.crc.to_bytes(4, "little"))
    return f"{out.crc:08x}"


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise GraphFileError("truncated graph file (checksum cannot match)")
    return data


def deserialize(path) -> tuple[SOSGraph, str]:
    """The graph in a file and its payload CRC32, as `file_checksum` reports it."""
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
    # The file's dtypes are the in-memory ones, so the blocks are used as
    # read, with no copy: the E8 k=6 edge list alone is 655 MB.
    vs = VertexSet(label=label, k=k, vectors=vectors, multiplicity=multiplicity, orbit=orbit)
    return SOSGraph(vertices=vs, indptr=indptr, indices=indices), f"{crc:08x}"


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
