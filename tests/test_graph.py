import dataclasses
import os
import subprocess
import sys
import zlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sosgraphs import graph as graphmod
from sosgraphs import sos as sosmod
from sosgraphs.graph import (
    GraphFileError,
    GraphStats,
    MembershipGraph,
    SOSGraph,
    build_gamma,
    deserialize,
    file_checksum,
    quotient_components,
    serialize,
    stats,
    to_dot,
    weyl_orbit_labels,
)
from sosgraphs.roots import (
    DescentForest,
    GroupActionError,
    build_root_system,
    key_index,
    orbit_labels,
    parse_label,
    reflection_permutations,
)
from sosgraphs.sos import vertex_set
from sosgraphs.sunflower import count_sunflower_max_cliques

import oracles
from oracles import (
    as_tuples,
    closure,
    closure_orbit_labels,
    csr_stats,
    placeholder_vertex_set,
    propagated_components,
    reflect,
)
from test_acceptance import TIER2
from test_sos import ORACLE_ROWS

# (|V|, |E|, min deg, max deg, components) rows
TIER1 = {
    ("G2", 1): (12, 30, 4, 6, 1),
    ("G2", 2): (6, 6, 2, 2, 1),
    ("F4", 1): (48, 408, 14, 20, 1),
    ("F4", 2): (120, 1200, 20, 20, 1),
    ("F4", 3): (240, 3552, 26, 32, 1),
    ("F4", 4): (24, 96, 8, 8, 1),
    ("E6", 1): (72, 720, 20, 20, 1),
    ("E6", 2): (270, 4590, 34, 34, 1),
    ("E6", 3): (720, 26640, 74, 74, 1),
    ("E6", 4): (72, 720, 20, 20, 1),
    ("E7", 1): (126, 2016, 32, 32, 1),
    ("E7", 2): (756, 37800, 100, 100, 1),
    ("E7", 3): (2072, 183456, 0, 182, 57),
    ("E7", 7): (576, 0, 0, 0, 576),
    ("E8", 1): (240, 6720, 56, 56, 1),
    ("E8", 2): (2160, 302400, 280, 280, 1),
}


@pytest.mark.parametrize("label,k", sorted(TIER1))
def test_tier1_parameters(label, k, gamma):
    n, m, dmin, dmax, cc = TIER1[(label, k)]
    s = stats(gamma(label, k))
    assert (s.n, s.m, s.min_degree, s.max_degree, s.component_count) == (
        n, m, dmin, dmax, cc,
    )


@pytest.mark.parametrize("label,k", sorted(TIER1))
def test_quotient_stats_match_csr_oracle(label, k, gamma, mgraph, pairwise_gamma):
    """Every GraphStats field, from the orbit quotient on both graph views,
    equals the one read off the pairwise oracle's CSR edge list."""
    want = csr_stats(pairwise_gamma(label, k))
    assert stats(mgraph(label, k)) == want
    assert stats(gamma(label, k)) == want


@pytest.mark.parametrize(
    "label,k", sorted(TIER1) + [pytest.param("E8", 6, marks=pytest.mark.slow)]
)
def test_schreier_vector_spans_each_orbit_from_its_representative(label, k, mgraph):
    """The descent forest is a Schreier vector: the recorded reflection
    maps each vertex's parent to it, each orbit's tree hangs from its
    representative, every vertex is reached, and the levels list each
    vertex once, one level below its parent."""
    g = mgraph(label, k)
    perms = reflection_permutations(parse_label(label).simple_roots, g.vertices.vectors)
    reps = g.orbit_representatives()
    forest = g.vertices.forest
    parent, gen, levels = forest.parent, forest.gen, forest.levels()
    assert (parent[reps] == -1).all() and (gen[reps] == -1).all()
    below = np.concatenate([np.empty(0, dtype=np.int64), *levels])
    assert np.array_equal(np.sort(np.concatenate([reps, below])), np.arange(g.n))
    assert (parent[below] >= 0).all()
    assert np.array_equal(np.stack(perms)[gen[below], parent[below]], below)
    seen = np.zeros(g.n, dtype=bool)
    seen[reps] = True
    root = np.arange(g.n)
    for level in levels:  # parents lie one level up, so roots resolve in order
        assert seen[parent[level]].all()
        root[level] = root[parent[level]]
        seen[level] = True
    assert np.array_equal(root, np.asarray(reps)[g.orbit_label])
    assert np.array_equal(root, forest.root)


@pytest.mark.parametrize("label,k", ORACLE_ROWS)
def test_descent_forest_roots_are_the_dominant_highest_vertices(label, k):
    """The forest has one root per W-orbit, the orbit's highest index,
    with no negative Cartan integer; each vertex lies as many levels down
    as there are positive roots it pairs negatively with."""
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    forest = vs.forest
    roots = forest.roots
    highest = [int(np.flatnonzero(vs.orbit == o).max()) for o in range(int(vs.orbit.max()) + 1)]
    assert np.bincount(vs.orbit[roots]).tolist() == [1] * len(highest)
    assert sorted(highest) == roots.tolist()
    assert (vs.vectors[roots] @ np.asarray(rs.simple_roots).T >= 0).all()
    negative = (vs.vectors @ oracles.positive_roots(rs).T < 0).sum(axis=1)
    assert np.array_equal(forest.depth, negative)
    assert np.array_equal(forest.sizes(), np.bincount(vs.orbit)[vs.orbit[roots]])


def test_perturbed_reflection_breaks_the_descent_forest(monkeypatch):
    """A simple reflection swapped at two vertices either sends a descent
    step down in lex order or into another W-orbit; building the vertex
    set's action with it raises either way."""
    vs = vertex_set(parse_label("E7"), 3)
    forest, perms = vs.forest, vs.forest.perms

    def rebuilt(x, z):
        """The action with s_j, j the descent generator of x, swapped at x and z."""
        bad = perms.copy()
        j = forest.gen[x]
        bad[j, [x, z]] = bad[j, [z, x]]
        monkeypatch.setattr(sosmod, "_image_permutations", lambda *args: bad)
        return sosmod.closed_vertex_set(
            vs.label, vs.k, vs.vectors, vs.multiplicity, vs.orbit, vs.keys, forest.pairing
        )

    x = int(np.flatnonzero(forest.gen >= 0).max())
    with pytest.raises(GroupActionError, match="does not rise"):
        rebuilt(x, int(perms[forest.gen[x]].argmin()))  # x now steps down to vertex 0
    j = forest.gen[0]
    other = [r for r in forest.roots if vs.orbit[r] != vs.orbit[0] and perms[j, r] > 0][0]
    with pytest.raises(GroupActionError, match="one root per W-orbit"):
        rebuilt(0, other)  # vertex 0 now steps into another orbit


@pytest.mark.parametrize("label,k", [("F4", 3), ("E7", 3), ("E8", 2)])
def test_weyl_forest_is_computed_once(monkeypatch, label, k):
    """Each vertex set builds its descent forest once, with its action: the
    components and the sunflower census read that forest, and an edge
    build takes one forest, with the vertex set it closes. It equals the
    descent forest of the kept reflections under the inner products
    <x, a_j>, of which the kept Cartan integers are a positive multiple
    per column."""
    rs = parse_label(label)
    sosmod._orbit_counts(rs, k)  # the candidate-set tables take forests of their own
    real, calls = sosmod.descent_forest, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sosmod, "descent_forest", counted)
    vs = vertex_set(rs, k)
    g = MembershipGraph(vs)
    stats(g)
    count_sunflower_max_cliques(g, rs)
    assert len(calls) == 1
    stats(build_gamma(rs, k))
    build_gamma(rs, k)
    assert len(calls) == 3
    fresh = real(vs.forest.perms, vs.vectors @ np.asarray(rs.simple_roots).T)
    for name in ("parent", "gen", "root", "depth"):
        assert np.array_equal(getattr(vs.forest, name), getattr(fresh, name))


@pytest.mark.parametrize("label,k", sorted(TIER1))
def test_forest_transport_matches_bfs_oracle(label, k, mgraph):
    """Rows carried down the descent forest, over the vertex set and over
    each N(v) under Stab(v), are the rows carried along the breadth-first
    Schreier vector, as sets."""
    g = mgraph(label, k)
    forest = g.vertices.forest
    reps = g.orbit_representatives()
    hoods = [g.neighbors(r) for r in reps]
    have = forest.transport(reps, hoods)
    want = oracles.bfs_transport(forest.perms, reps, hoods)
    assert np.array_equal(np.sort(have, axis=1), np.sort(want, axis=1))
    for r, nb in zip(reps, hoods):
        local = forest.stabilizer(r, nb)
        rows = [np.flatnonzero(g.vertices.adjacent(nb[w], nb)) for w in local.roots]
        have = local.transport(local.roots, rows)
        want = oracles.bfs_transport(local.perms, local.roots, rows)
        assert np.array_equal(np.sort(have, axis=1), np.sort(want, axis=1))
    with pytest.raises(ValueError, match="forest roots"):
        forest.transport(np.arange(len(reps)) + 1, hoods)


QUOTIENT_ROWS = sorted(TIER1) + [
    pytest.param(label, k, marks=pytest.mark.slow)
    for label, k in [("E7", 4), ("E7", 5), ("E7", 6)] + [("E8", k) for k in range(3, 9)]
]


@pytest.mark.parametrize("label,k", QUOTIENT_ROWS)
def test_components_match_propagation_oracle(label, k, mgraph, monkeypatch):
    """Component labels and every GraphStats field equal the propagation-only
    path (E8 k=2 and k=8 need a round of the fixed-point loop)."""
    g = mgraph(label, k)
    reps = g.orbit_representatives()
    hoods = [g.neighbors(v) for v in reps]
    want = propagated_components(g, reps, hoods)
    assert np.array_equal(quotient_components(g, reps, hoods), want)
    have = stats(g)
    monkeypatch.setattr(graphmod, "quotient_components", propagated_components)
    assert have == stats(g)


@pytest.mark.parametrize("label,k", [("G2", 1), ("F4", 3), ("E7", 3), ("E8", 2)])
def test_census_reads_the_closure_reflections(label, k, monkeypatch, tmp_path):
    """On a freshly closed vertex set, stats, build_gamma and the sunflower
    census look up no simple-reflection permutation and multiply no vertex
    by a simple root: they read the action built from the closure's Cartan
    integers, and still give the pinned values."""
    from sosgraphs import roots as rootsmod
    from sosgraphs import sos as sosmod
    from sosgraphs import sunflower as sunmod
    from sosgraphs.sunflower import count_sunflower_max_cliques

    from test_acceptance import SUNFLOWERS

    rs = parse_label(label)
    simple = np.asarray(rs.simple_roots)
    real, real_product = rootsmod.reflection_permutations, rootsmod._cartan_integers
    lookups, products = [], []
    n, m, dmin, dmax, cc = TIER1[(label, k)]

    def counted(roots, *args):
        if np.array_equal(np.asarray(roots).reshape(-1, simple.shape[1]), simple):
            lookups.append(label)
        return real(roots, *args)

    def product(rows, roots):
        if len(rows) == n:
            products.append(label)
        return real_product(rows, roots)

    for module in (rootsmod, sosmod, graphmod, sunmod):
        monkeypatch.setattr(module, "reflection_permutations", counted)
        if hasattr(module, "_cartan_integers"):
            monkeypatch.setattr(module, "_cartan_integers", product)
    s = stats(graphmod.membership_graph(rs, k))
    assert (s.n, s.m, s.min_degree, s.max_degree, s.component_count) == (n, m, dmin, dmax, cc)
    g = build_gamma(rs, k)
    assert g.edge_count == m and stats(g) == s
    census = count_sunflower_max_cliques(g, rs)
    assert (census.total_maximum_cliques, census.sunflower_cliques) == SUNFLOWERS[(label, k)][:2]
    assert lookups == [] and products == []
    # The probe does see a product: a set read from its file takes its
    # Cartan integers from one product, which serves lookup and pairing.
    serialize(g, tmp_path / "g.sosg")
    read = deserialize(tmp_path / "g.sosg")[0].vertices
    assert np.array_equal(read.forest.perms, g.vertices.forest.perms)
    assert lookups == [] and products == [label]


def test_components_exact_without_transported_edges(mgraph, monkeypatch):
    """With no transported stabilizer seeds the fixed-point loop alone
    still finds the 57 components of E7 k=3, so no answer rests on the
    transport."""
    g = mgraph("E7", 3)
    reps = g.orbit_representatives()
    hoods = [g.neighbors(v) for v in reps]
    want = propagated_components(g, reps, hoods)
    monkeypatch.setattr(
        DescentForest, "transport", lambda self, reps, carried: np.empty((g.n, 0), np.int32)
    )
    labels = quotient_components(g, reps, hoods)
    assert np.array_equal(labels, want) and np.unique(labels).size == 57


def test_odd_weighted_degree_sum_raises():
    """One orbit of 3 vertices whose representative, the highest, has degree 1."""
    vs = placeholder_vertex_set("G2", np.zeros((3, 3), dtype=np.int32), np.zeros(3, dtype=np.int32))
    g = SOSGraph(vertices=vs, indptr=np.array([0, 0, 1, 2]),
                 indices=np.array([2, 1], dtype=np.int32))
    with pytest.raises(ArithmeticError, match="odd"):
        stats(g)


def test_e7_k3_isolated_vertices(gamma):
    s = stats(gamma("E7", 3))
    assert s.component_count == 57
    assert s.isolated_vertex_count == 56
    assert sorted(s.component_sizes, reverse=True)[0] == 2016


def test_edgeless_components(gamma):
    s = stats(gamma("E7", 7))
    assert s.component_count == s.n == 576
    assert s.component_sizes == tuple([1] * 576)


def test_edges_match_naive_membership(gamma):
    """Oracle: quadratic loop over vertex tuples with set membership."""
    for label, k in [("G2", 1), ("G2", 2), ("F4", 4), ("E6", 1)]:
        g = gamma(label, k)
        vectors = as_tuples(g.vertices)
        have = set(vectors)
        edges = set()
        for i, v in enumerate(vectors):
            for j in range(i + 1, len(vectors)):
                w = vectors[j]
                if tuple(a - b for a, b in zip(v, w)) in have:
                    edges.add((i, j))
        got = {
            (v, int(w)) for v in range(g.n) for w in g.neighbors(v) if v < w
        }
        assert got == edges


def test_block_size_independence():
    """The pairwise oracle gives one edge list at every block size, and it is
    the transported one."""
    rs = build_root_system("F4")
    built = build_gamma(rs, 3)
    baseline = oracles.pairwise_gamma(rs, 3, block_size=7)
    for bs in (64, 100000):
        g = oracles.pairwise_gamma(rs, 3, block_size=bs)
        assert np.array_equal(g.indptr, baseline.indptr)
        assert np.array_equal(g.indices, baseline.indices)
    assert np.array_equal(built.indptr, baseline.indptr)
    assert np.array_equal(built.indices, baseline.indices)


@pytest.mark.parametrize(
    "label,k",
    sorted(TIER1)
    + [("A3", 1), ("A3", 2), ("A8", 2), ("D9", 1), ("E6", 5)]
    + [("D4", k) for k in range(1, 5)]
    + [pytest.param(label, k, marks=pytest.mark.slow) for label, k in TIER2],
)
def test_build_matches_pairwise_oracle(label, k, pairwise_gamma):
    """The edge list carried along the Schreier vector equals the one from
    every vertex pair, dtypes included (E6 k=5 is empty, E7 k=7 edgeless).
    The transported graph is built here and not cached, so the slow rows
    hold only the oracle graphs the acceptance suite has cached."""
    want = pairwise_gamma(label, k)
    have = build_gamma(parse_label(label), k)
    for field in ("indptr", "indices", "orbit_label"):
        a, b = getattr(have, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_membership_graph_neighbors_match(gamma, mgraph):
    g = gamma("F4", 3)
    m = mgraph("F4", 3)
    for v in (0, 5, 100, 239):
        assert np.array_equal(g.neighbors(v), m.neighbors(v))


def test_weyl_orbit_examples(gamma):
    assert sorted(gamma("E8", 2).orbit_sizes()) == [2160]  # vertex-transitive
    assert sorted(gamma("G2", 1).orbit_sizes()) == [6, 6]
    assert sorted(gamma("E7", 3).orbit_sizes()) == [56, 2016]


def test_e8_k4_orbits():
    e8 = build_root_system("E8")
    labels = weyl_orbit_labels(e8, vertex_set(e8, 4))
    assert sorted(np.bincount(labels).tolist()) == [240, 17280]


def test_orbitwise_constant_degree(gamma):
    for label, k in [("G2", 1), ("F4", 1), ("E7", 3)]:
        g = gamma(label, k)
        deg = np.diff(g.indptr)
        for orbit in range(int(g.orbit_label.max()) + 1):
            members = np.flatnonzero(g.orbit_label == orbit)
            assert len(set(deg[members].tolist())) == 1


def test_edge_symmetry_sampled(gamma):
    g = gamma("E7", 2)
    rng = np.random.default_rng(7)
    u = rng.integers(0, g.n, 20000)
    v = rng.integers(0, g.n, 20000)
    assert np.array_equal(g.vertices.adjacent(u, v), g.vertices.adjacent(v, u))


def test_serialize_round_trip(tmp_path, gamma):
    for label, k in [("F4", 4), ("E8", 2), ("E7", 7)]:
        g = gamma(label, k)
        path = tmp_path / f"{label}_{k}.sosg"
        written = serialize(g, path)
        back, read = deserialize(path)
        assert written == read == file_checksum(path)
        assert back.label == g.label and back.k == g.k
        assert np.array_equal(back.vertices.vectors, g.vertices.vectors)
        assert np.array_equal(back.vertices.multiplicity, g.vertices.multiplicity)
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)
        assert np.array_equal(back.orbit_label, g.orbit_label)
        assert np.array_equal(back.vertices.orbit, g.orbit_label)
        for arr in (back.vertices.vectors, back.vertices.multiplicity, back.vertices.orbit,
                    back.indptr, back.indices):
            assert arr.base is not None  # the file's bytes, not a copy
        assert back.edge_count == g.edge_count
        # byte-identical rewrite
        path2 = tmp_path / "again.sosg"
        serialize(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_deserialize_truncated_and_corrupt(tmp_path, gamma):
    g = gamma("F4", 4)
    path = tmp_path / "g.sosg"
    serialize(g, path)
    data = path.read_bytes()
    truncated = tmp_path / "trunc.sosg"
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(GraphFileError):
        deserialize(truncated)
    flipped = bytearray(data)
    flipped[100] ^= 0xFF
    corrupt = tmp_path / "corrupt.sosg"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(GraphFileError, match="checksum"):
        deserialize(corrupt)
    with pytest.raises(GraphFileError, match="magic"):
        deserialize(__file__)
    for name, bad in corrupted_headers(data).items():
        (tmp_path / name).write_bytes(bad)
        with pytest.raises(GraphFileError, match="declares" if name == "huge_n" else "UTF-8"):
            deserialize(tmp_path / name)


def corrupted_headers(data: bytes) -> dict[str, bytes]:
    """A graph file with a vertex count of 2**40 in its header, and one with
    a label byte that is not UTF-8; neither may be read past its header."""
    n_at = 4 + 4 + 1 + data[8] + 4
    huge_n = data[:n_at] + (1 << 40).to_bytes(8, "little") + data[n_at + 8 :]
    return {"huge_n": huge_n, "bad_label": data[:9] + b"\xff" + data[10:]}


@pytest.mark.parametrize("label,k", [("F4", 3), ("E7", 3), ("E8", 2)])
def test_weyl_action_of_a_deserialized_vertex_set(tmp_path, gamma, label, k):
    """A vertex set read back from its file gets its action as it is read,
    from its rows' Cartan integers: its keys, its descent forest with the
    reflections and pairing it keeps, and every Stab_W(v) on N(v) equal
    those of the vertex set that was written."""
    g = gamma(label, k)
    serialize(g, tmp_path / "g.sosg")
    read, _ = deserialize(tmp_path / "g.sosg")
    kept, vs = g.vertices, read.vertices
    assert vs.forest.perms.dtype == np.int32
    assert np.array_equal(vs.keys, kept.keys)
    fields = ("perms", "pairing", "parent", "gen", "root", "depth")
    for name in fields:
        assert np.array_equal(getattr(vs.forest, name), getattr(kept.forest, name)), name
    for v in read.orbit_representatives():
        nb = read.neighbors(v)
        have, want = vs.forest.stabilizer(v, nb), kept.forest.stabilizer(v, nb)
        for name in fields:
            assert np.array_equal(getattr(have, name), getattr(want, name)), name


def with_swapped_orbit_ids(data: bytes) -> bytes:
    """A graph file with the orbit ids of vertex 0 and the first vertex of
    another W-orbit swapped, and its CRC recomputed to match."""
    label_len = data[8]
    n_at = 9 + label_len + 4
    n = int.from_bytes(data[n_at : n_at + 8], "little")
    dim = int.from_bytes(data[n_at + 16 : n_at + 20], "little")
    at = n_at + 20 + n * dim * 4 + n * 8
    orbit = np.frombuffer(data[at : at + 4 * n], dtype="<i4").copy()
    other = int(np.flatnonzero(orbit != orbit[0])[0])
    orbit[[0, other]] = orbit[[other, 0]]
    payload = data[:at] + orbit.tobytes() + data[at + 4 * n : -4]
    return payload + zlib.crc32(payload).to_bytes(4, "little")


def test_deserialize_refuses_orbit_ids_that_disagree_with_the_rows(tmp_path, gamma):
    """The action is built as the file is read, so orbit ids that are not
    the rows' W-orbits fail the descent-forest check, as a GraphFileError
    that names it, although the CRC matches."""
    path = tmp_path / "g.sosg"
    serialize(gamma("E7", 3), path)
    path.write_bytes(with_swapped_orbit_ids(path.read_bytes()))
    with pytest.raises(GraphFileError, match="one root per W-orbit"):
        deserialize(path)


def with_indptr_entry_moved(data: bytes, entry: int, delta: int) -> bytes:
    """A graph file with indptr[entry] moved by delta and its CRC
    recomputed to match."""
    label_len = data[8]
    n_at = 9 + label_len + 4
    n = int.from_bytes(data[n_at : n_at + 8], "little")
    dim = int.from_bytes(data[n_at + 16 : n_at + 20], "little")
    at = n_at + 20 + n * dim * 4 + n * 8 + n * 4
    indptr = np.frombuffer(data[at : at + 8 * (n + 1)], dtype="<i8").copy()
    indptr[entry] += delta
    payload = data[:at] + indptr.tobytes() + data[at + 8 * (n + 1) : -4]
    return payload + zlib.crc32(payload).to_bytes(4, "little")


# (entry, delta, error) per corruption of an F4 k=3 file, whose degrees are
# 26 and 32. The first makes the last row one entry longer.
BAD_INDPTR = {
    "longer_last_row": (-2, -1, "differ in degree"),
    "end_beyond_2m": (-1, 1, "from 0 to 2m"),
    "start_above_0": (0, 1, "from 0 to 2m"),
    "decreasing": (1, 100, "from 0 to 2m"),
}


@pytest.mark.parametrize("name", BAD_INDPTR)
def test_deserialize_refuses_bad_row_offsets(tmp_path, gamma, name):
    """Row offsets that do not rise from 0 to 2m, or that give two vertices
    of one W-orbit different degrees, are a GraphFileError although the
    CRC matches; none of these checks reads the edge block."""
    entry, delta, message = BAD_INDPTR[name]
    path = tmp_path / "g.sosg"
    serialize(gamma("F4", 3), path)
    path.write_bytes(with_indptr_entry_moved(path.read_bytes(), entry, delta))
    with pytest.raises(GraphFileError, match=message):
        deserialize(path)


def test_deserialized_blocks_are_read_only(tmp_path, gamma):
    """Every block of a graph read from its file is a read-only view: a
    write into one raises ValueError and leaves the file as it was."""
    path = tmp_path / "g.sosg"
    serialize(gamma("F4", 3), path)
    data = path.read_bytes()
    g, _ = deserialize(path)
    vs = g.vertices
    for arr in (vs.vectors, vs.multiplicity, vs.orbit, g.indptr, g.indices):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 0
    assert path.read_bytes() == data


_REWRITE_HELD = """
import sys
import numpy as np
from sosgraphs.graph import build_gamma, deserialize, serialize
from sosgraphs.roots import parse_label
path = sys.argv[1]
serialize(build_gamma(parse_label("E7"), 3), path)
held, _ = deserialize(path)
want = np.array(held.indices)
serialize(build_gamma(parse_label("F4"), 1), path)
assert np.array_equal(held.indices, want)
print(deserialize(path)[0].label)
"""


def test_rewriting_a_path_keeps_a_held_graph(tmp_path):
    """A graph read from a file still reads its old edges after the path
    is written again: the new file replaces the old one by name, where an
    in-place rewrite under the mapped views would kill the process with
    SIGBUS. So the check runs in a process of its own."""
    path = tmp_path / "g.sosg"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _REWRITE_HELD, str(path)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "F4"), done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["g.sosg"]


def test_a_failed_write_keeps_the_old_file(tmp_path, gamma):
    """A write that fails part way leaves the file at the path as it was
    and no temporary file beside it."""
    path = tmp_path / "g.sosg"
    serialize(gamma("G2", 1), path)
    data = path.read_bytes()
    broken = dataclasses.replace(gamma("F4", 1), indices=np.array(["x", "y"]))
    with pytest.raises(ValueError):
        serialize(broken, path)
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["g.sosg"]


def test_census_on_deserialized_graph(tmp_path, gamma):
    """Cache-loaded graphs feed the same censuses through CSR neighborhoods."""
    from sosgraphs.clique import count_maximum_cliques
    from sosgraphs.sunflower import count_sunflower_max_cliques

    path = tmp_path / "e6k2.sosg"
    serialize(gamma("E6", 2), path)
    g, _ = deserialize(path)
    assert count_maximum_cliques(g).total_maximum_cliques == 4320
    census = count_sunflower_max_cliques(g, build_root_system("E6"))
    assert (census.total_maximum_cliques, census.sunflower_cliques) == (4320, 0)


@pytest.mark.parametrize("label,k", [("F4", 1), ("E7", 4), ("E8", 3)])
def test_stabilizer_permutations_match_lookup_oracle(label, k, mgraph):
    """At every W-representative v, the generators of Stab_W(v) are the
    simple reflections orthogonal to v, and their kept permutations
    restricted to N(v) equal those from building and looking up every
    image; the pairings are the Cartan integers, which times <a, a>/2 are
    the inner products <x, a>."""
    g = mgraph(label, k)
    simple = np.asarray(parse_label(label).simple_roots)
    for v in g.orbit_representatives():
        nb = g.neighbors(v)
        local = g.vertices.forest.stabilizer(v, nb)
        perms, pairing = local.perms, local.pairing
        roots = simple[simple @ g.vertices.vectors[v] == 0]
        assert len(roots) and perms.shape == (len(roots), nb.size)
        assert np.array_equal(perms, oracles.lookup_permutations(roots, g.vertices.vectors[nb]))
        half_norms = (roots * roots).sum(axis=1) // 2
        assert np.array_equal(pairing * half_norms, g.vertices.vectors[nb] @ roots.T)


def test_orbit_closure_extends_beyond_seeds():
    """Closure of one root reaches its full reflection orbit; the primitive
    gives that orbit on the closed set and refuses the seed alone."""
    e6 = build_root_system("E6")
    maps = [partial(reflect, alpha) for alpha in e6.simple_roots]
    assert len(closure([e6.roots[0]], maps)) == 72
    rows = np.array(e6.roots, dtype=np.int64)
    perms = reflection_permutations(e6.simple_roots, rows)
    assert np.bincount(orbit_labels(perms, len(rows))).tolist() == [72]
    with pytest.raises(GroupActionError, match="escapes"):
        reflection_permutations(e6.simple_roots, rows[:1])


@pytest.mark.parametrize("label,k", sorted(TIER1))
def test_weyl_labels_match_closure_oracle(label, k):
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    maps = [partial(reflect, alpha) for alpha in rs.simple_roots]
    assert weyl_orbit_labels(rs, vs).tolist() == closure_orbit_labels(as_tuples(vs), maps)


def test_orbit_labels_numbered_by_lowest_index():
    # two 3-cycles interleaved: {0, 2, 4} and {1, 3, 5}; one fixed point 6
    perm = np.array([2, 3, 4, 5, 0, 1, 6])
    assert orbit_labels([perm], 7).tolist() == [0, 1, 0, 1, 0, 1, 2]
    assert orbit_labels([], 3).tolist() == [0, 1, 2]
    assert orbit_labels([np.empty(0, dtype=np.int64)], 0).size == 0


def test_key_index_positions_or_minus_one():
    keys = np.array([3, 8, 20], dtype=np.int64)
    assert key_index(keys, np.array([20, 3, 4, 21, -1])).tolist() == [2, 0, -1, -1, -1]
    assert key_index(keys, np.array([[8, 9], [3, 3]])).tolist() == [[1, -1], [0, 0]]
    assert key_index(keys[:0], np.array([3])).tolist() == [-1]


def test_vertex_permutation_rejects_escaping_images():
    """The reflection in (2, -2) swaps the coordinates: a permutation of
    {(0, 2), (2, 0)}, but it takes (4, 0) out of {(0, 2), (4, 0)} and
    (2, 0) out of the set holding it alone."""
    swap = [(2, -2)]
    assert reflection_permutations(swap, np.array([[0, 2], [2, 0]])).tolist() == [[1, 0]]
    with pytest.raises(GroupActionError):
        reflection_permutations(swap, np.array([[0, 2], [4, 0]]))
    with pytest.raises(GroupActionError):
        reflection_permutations(swap, np.array([[2, 0]]))


def test_largest_key_dimension_builds():
    """Ambient dimension 9 (A8, D9) is the widest the int64 keys hold."""
    g = build_gamma(parse_label("D9"), 1)
    assert g.n == 144 and stats(g).is_regular
    assert build_gamma(parse_label("A8"), 2).n > 0


def test_file_checksum_discriminates(tmp_path, gamma):
    p1 = tmp_path / "a.sosg"
    p2 = tmp_path / "b.sosg"
    serialize(gamma("G2", 1), p1)
    serialize(gamma("G2", 2), p2)
    assert file_checksum(p1) != file_checksum(p2)


def test_empty_graph_beyond_max_sos(mgraph):
    rs = build_root_system("E6")
    g = build_gamma(rs, 5)
    assert g.n == 0 and g.edge_count == 0
    empty = GraphStats(0, 0, 0, 0, True, 0, (), 0)
    assert stats(g) == stats(mgraph("E6", 5)) == csr_stats(g) == empty


def test_to_dot_f4k4(gamma):
    text = to_dot(gamma("F4", 4))
    assert text.count(" -- ") == 96
    assert '"F4_k4"' in text
    # signed-support labels, e.g. +2+4 style
    assert 'label="+1+2"' in text or 'label="-1-2"' in text


def test_parse_label_families():
    assert parse_label("A3").rank == 3
    assert parse_label("D5").coxeter_number == 8
