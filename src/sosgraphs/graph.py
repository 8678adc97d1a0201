"""Gamma graphs: edges join vertex pairs whose difference is again a vertex.

A graph is its vertex set (`VertexSet.adjacent` is the edge test), plus
the CSR edge list where that list is the product.

W acts by automorphisms, so everything here starts from the
neighbourhoods at one vertex per W-orbit, its highest index, which is
its dominant vertex. Degrees are read there, and the components are the
finest W-invariant equivalence containing the edges at those vertices,
found by merging labels over pairs of vertices (`roots.merge_labels`).

All group work comes from W's action, which every vertex set carries
from one construction (`sos.closed_vertex_set`): the descent forest of
the simple reflections, paired with the vertices by the Cartan integers
<x, a_j^v>. The descent of every index toward its orbit's dominant
vertex gives the orbits, their sizes and a Schreier vector at once, with
no lookup and no search, and Stab_W(v) of a dominant v on N(v) is the
forest's `stabilizer`. The explicit edge list (`build_gamma`) carries
each representative's neighbourhood down the forest to every vertex of
its orbit, N(g.r) = g.N(r) (`DescentForest.transport`); it serves the
graph file, DOT export and the isomorphism checks. A graph file is read
in two steps: one streamed pass for its CRC, then read-only views of the
file mapped into memory, so a reader holds only the rows it touches. Its
vertex set gets its action as it is read, so a file whose orbit block
disagrees with its rows is refused.
Files are written under a temporary name and renamed into place, so a
rewrite never changes the bytes under a reader's views.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from sosgraphs.roots import (
    RootSystem,
    _cartan_integers,
    _check_norms,
    encode_rows,
    merge_labels,
    orbit_labels,
    parse_label,
    reflection_permutations,
)
from sosgraphs.sos import VertexSet, closed_vertex_set, vertex_set

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
        """The dominant vertex of each orbit, its highest index, in orbit
        order: the roots of W's descent forest."""
        roots = self.vertices.forest.roots
        return roots[np.argsort(self.orbit_label[roots])].tolist()

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


def weyl_orbit_labels(rs: RootSystem, vertices: VertexSet) -> np.ndarray:
    """Per-vertex Weyl orbit ids, numbered by their lex-least vertex."""
    return orbit_labels(reflection_permutations(rs.simple_roots, vertices.vectors), len(vertices))


def membership_graph(rs: RootSystem, k: int) -> MembershipGraph:
    """The level-k vertex set as a graph, with no explicit edge list."""
    return MembershipGraph(vertex_set(rs, k))


def build_gamma(rs: RootSystem, k: int) -> SOSGraph:
    """Build the gamma graph for rs at level k with its explicit edge list.

    The neighbourhood of each W-orbit representative is carried to every
    vertex of its orbit (`DescentForest.transport`); each row is then
    sorted and the padding, which arrives at x as x itself, is dropped.
    """
    g = membership_graph(rs, k)
    vs = g.vertices
    if g.n and not np.array_equal(np.sort(encode_rows(-vs.vectors.astype(np.int64))), vs.keys):
        raise ValueError("vertex set not closed under negation; adjacency would not be symmetric")
    reps = g.orbit_representatives()
    hoods = [g.neighbors(r) for r in reps]
    rows = vs.forest.transport(reps, hoods)
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


def quotient_components(g: MembershipGraph, reps: list[int], hoods) -> np.ndarray:
    """Lowest index of each vertex's component, from the W-orbit quotient.

    W acts by automorphisms, so the component partition is W-invariant,
    and every edge is w.(an edge at an orbit representative). The
    components are therefore the finest W-invariant equivalence holding
    the representatives' edges. Each of the three steps below is one
    `merge_labels`.

    The search starts from edges at every vertex: x ~ g_x.w_j, with one
    neighbour w_j per Stab_W(r)-orbit of N(r) carried down the descent
    forest to x = g_x.r. They are edges, so they never merge too much.
    The representatives' edges are merged next. Then x ~ L[x] is carried
    to s.x ~ s.L[x] for each simple reflection s until that merges
    nothing; the fixed point is W-invariant and holds every edge at the
    representatives, so it is exact.
    """
    forest = g.vertices.forest
    seeds = [nb[forest.stabilizer(r, nb).roots] for r, nb in zip(reps, hoods)]
    every = np.arange(g.n, dtype=np.int64)
    labels = merge_labels(every, every[:, None], forest.transport(reps, seeds))
    rep_src = np.repeat(np.asarray(reps, dtype=np.int64), [h.size for h in hoods])
    labels = merge_labels(labels, rep_src, np.concatenate([every[:0], *hoods]))
    perms = forest.perms
    while (merged := merge_labels(labels, perms, perms[:, labels])) is not labels:
        labels = merged
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


# The blocks after the header, in file order: vectors, multiplicity, orbit
# ids, indptr and indices. Their dtypes are the in-memory ones, so a block
# is used as it lies in the file, with no copy: the E8 k=6 edge list alone
# is 655 MB.
def _blocks(n: int, m: int, dim: int) -> tuple[tuple[str, int], ...]:
    """(dtype, entry count) of each block of a graph file, in file order."""
    return (("<i4", n * dim), ("<i8", n), ("<i4", n), ("<i8", n + 1), ("<i4", 2 * m))


_COUNTS = struct.Struct("<IQQI")  # k, n, m and dim, after the label


def serialize(g: SOSGraph, path) -> str:
    """Write the graph file: magic, version, header, blocks, CRC32 trailer.

    The file is written under a temporary name in the same directory and
    then renamed over path, so a reader that mapped the old file keeps its
    bytes. Returns the payload CRC32 as `file_checksum` reports it.
    """
    vs = g.vertices
    label = g.label.encode("utf-8")
    header = MAGIC + FORMAT_VERSION.to_bytes(4, "little") + len(label).to_bytes(1, "little")
    header += label + _COUNTS.pack(g.k, g.n, g.edge_count, vs.dim)
    arrays = (vs.vectors, vs.multiplicity, vs.orbit, g.indptr, g.indices)
    # open() gives the file the usual umask mode; mkstemp would narrow it to 0600.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            crc = zlib.crc32(header)
            for arr, (dtype, _) in zip(arrays, _blocks(g.n, g.edge_count, vs.dim)):
                # A byte view, not a copy.
                data = memoryview(np.ascontiguousarray(arr, dtype=dtype).reshape(-1)).cast("B")
                fh.write(data)
                crc = zlib.crc32(data, crc)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return f"{crc:08x}"


def _read_exact(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise GraphFileError("truncated graph file (checksum cannot match)")
    return data


def _payload_crc(fh) -> int:
    """The CRC32 of an open file's payload, read in 1 MB chunks; raises
    GraphFileError unless it equals the 4-byte trailer."""
    remaining = os.fstat(fh.fileno()).st_size - 4
    if remaining < 0:
        raise GraphFileError("file too short to carry a checksum")
    fh.seek(0)
    crc = 0
    while remaining:
        chunk = _read_exact(fh, min(1 << 20, remaining))
        crc = zlib.crc32(chunk, crc)
        remaining -= len(chunk)
    if int.from_bytes(_read_exact(fh, 4), "little") != crc:
        raise GraphFileError("graph file checksum mismatch")
    return crc


def deserialize(path) -> tuple[SOSGraph, str]:
    """The graph in a file and its payload CRC32, as `file_checksum` reports it.

    The header is checked first, so a corrupt count sizes no read. Then
    the CRC is streamed, and each block is a read-only view of the file,
    mapped once: only the rows a caller touches are read into memory.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise GraphFileError("not a graph file (bad magic)")
        version = int.from_bytes(_read_exact(fh, 4), "little")
        if version != FORMAT_VERSION:
            raise GraphFileError(f"unsupported graph file version {version}")
        try:
            label = _read_exact(fh, _read_exact(fh, 1)[0]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFileError("graph file label is not UTF-8") from exc
        k, n, m, dim = _COUNTS.unpack(_read_exact(fh, _COUNTS.size))
        offset = fh.tell()
        blocks = _blocks(n, m, dim)
        declared = offset + sum(np.dtype(dtype).itemsize * count for dtype, count in blocks) + 4
        if declared != os.fstat(fh.fileno()).st_size:
            raise GraphFileError(f"graph file size is not the {declared} bytes its header declares")
        crc = _payload_crc(fh)
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    views = []
    for dtype, count in blocks:
        views.append(np.frombuffer(mapped, dtype=dtype, count=count, offset=offset))
        offset += views[-1].nbytes
    vectors, multiplicity, orbit, indptr, indices = views
    vectors = vectors.reshape(n, dim)
    # One product gives the Cartan integers for both the lookup and the pairing.
    try:
        keys = encode_rows(vectors)
        if (np.diff(keys) <= 0).any():
            raise ValueError("the rows are not strictly lex-sorted")
        _check_norms(vectors)
        cartan = _cartan_integers(vectors, np.asarray(parse_label(label).simple_roots)).T
        vs = closed_vertex_set(label, k, vectors, multiplicity, orbit, keys, cartan)
    except ValueError as exc:
        raise GraphFileError(f"graph file rows are not a W-closed vertex set: {exc}") from exc
    # These read indptr alone, not the edge block. W acts by automorphisms,
    # so each W-orbit has one degree.
    degree = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != 2 * m or (degree < 0).any():
        raise GraphFileError("graph file row offsets do not rise from 0 to 2m")
    if (degree != degree[vs.forest.root]).any():
        raise GraphFileError("graph file rows of one W-orbit differ in degree")
    return SOSGraph(vertices=vs, indptr=indptr, indices=indices), f"{crc:08x}"


def file_checksum(path) -> str:
    """Payload CRC32 (the stored trailer value); identifies file content.

    The CRC of a payload plus its own little-endian CRC is the constant
    residue 0x2144df1c, so the whole-file CRC would not discriminate.
    """
    with open(path, "rb") as fh:
        return f"{_payload_crc(fh):08x}"


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
