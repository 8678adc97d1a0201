from functools import partial

import numpy as np
import pytest

from sosgraphs import graph as graphmod
from sosgraphs.graph import (
    GraphFileError,
    GraphStats,
    SOSGraph,
    build_gamma,
    deserialize,
    file_checksum,
    quotient_components,
    schreier_vector,
    serialize,
    stats,
    to_dot,
    weyl_orbit_labels,
)
from sosgraphs.roots import (
    GroupActionError,
    build_root_system,
    encode_rows,
    key_index,
    orbit_labels,
    parse_label,
    reflect_rows,
    reflection_permutations,
    vertex_permutation,
)
from sosgraphs.sos import VertexSet, vertex_set

import oracles
from oracles import (
    as_tuples,
    closure,
    closure_orbit_labels,
    csr_stats,
    propagated_components,
    reflect,
)
from test_acceptance import TIER2

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
    """The recorded reflection maps each vertex's parent to it, the BFS of
    each orbit starts at its representative, and every vertex is reached."""
    g = mgraph(label, k)
    perms = reflection_permutations(parse_label(label).simple_roots, g.vertices.vectors)
    reps = g.orbit_representatives()
    parent, gen, levels = schreier_vector(perms, reps, g.n)
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
def test_census_reads_the_closure_reflections(label, k, monkeypatch):
    """On a freshly closed vertex set, stats, build_gamma and the sunflower
    census look up no simple-reflection permutation: they read the ones
    the closure recorded, and still give the pinned values."""
    from sosgraphs import roots as rootsmod
    from sosgraphs import sos as sosmod
    from sosgraphs import sunflower as sunmod
    from sosgraphs.sunflower import count_sunflower_max_cliques

    from test_acceptance import SUNFLOWERS

    rs = parse_label(label)
    simple = np.asarray(rs.simple_roots)
    real = rootsmod.reflection_permutations
    lookups = []

    def counted(roots, *args):
        if np.array_equal(np.asarray(roots).reshape(-1, simple.shape[1]), simple):
            lookups.append(label)
        return real(roots, *args)

    for module in (rootsmod, sosmod, graphmod, sunmod):
        monkeypatch.setattr(module, "reflection_permutations", counted)
    monkeypatch.setattr(sosmod, "_VCACHE", {})
    n, m, dmin, dmax, cc = TIER1[(label, k)]
    s = stats(graphmod.membership_graph(rs, k))
    assert (s.n, s.m, s.min_degree, s.max_degree, s.component_count) == (n, m, dmin, dmax, cc)
    g = build_gamma(rs, k)
    assert g.edge_count == m and stats(g) == s
    census = count_sunflower_max_cliques(g, rs)
    assert (census.total_maximum_cliques, census.sunflower_cliques) == SUNFLOWERS[(label, k)][:2]
    assert lookups == []
    # The probe does see a lookup: a set not closed here builds its own.
    unclosed = VertexSet(label=g.label, k=k, vectors=g.vertices.vectors,
                         multiplicity=g.vertices.multiplicity)
    assert np.array_equal(unclosed.reflections(), g.vertices.reflections())
    assert lookups == [label]


def test_components_exact_without_transported_edges(mgraph, monkeypatch):
    """With no stabilizer seeds the fixed-point loop alone still finds the
    57 components of E7 k=3, so no answer rests on the transport."""
    g = mgraph("E7", 3)
    reps = g.orbit_representatives()
    hoods = [g.neighbors(v) for v in reps]
    want = propagated_components(g, reps, hoods)
    monkeypatch.setattr(graphmod, "restricted_orbits", lambda perms, members: ([], []))
    labels = quotient_components(g, reps, hoods)
    assert np.array_equal(labels, want) and np.unique(labels).size == 57


def test_odd_weighted_degree_sum_raises():
    """One orbit of 3 vertices whose representative has degree 1."""
    vs = VertexSet(label="G2", k=1, vectors=np.zeros((3, 3), dtype=np.int32),
                   multiplicity=np.ones(3, dtype=np.int64), orbit=np.zeros(3, dtype=np.int32))
    g = SOSGraph(vertices=vs, indptr=np.array([0, 1, 2, 2]),
                 indices=np.array([1, 0], dtype=np.int32))
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


def test_orbit_closure_extends_beyond_seeds():
    """Closure of one root reaches its full reflection orbit; the primitive
    gives that orbit on the closed set and refuses the seed alone."""
    e6 = build_root_system("E6")
    maps = [partial(reflect, alpha) for alpha in e6.simple_roots]
    assert len(closure([e6.roots[0]], maps)) == 72
    rows = np.array(e6.roots, dtype=np.int64)
    perms = vertex_permutation(encode_rows(rows), reflect_rows(rows, e6.simple_roots))
    assert np.bincount(orbit_labels(perms, len(rows))).tolist() == [72]
    seed = rows[:1]
    with pytest.raises(GroupActionError, match="escapes"):
        vertex_permutation(encode_rows(seed), reflect_rows(seed, e6.simple_roots))


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
    keys = encode_rows(np.array([[0, 1], [1, 0]]))
    assert vertex_permutation(keys, np.array([[1, 0], [0, 1]])).tolist() == [1, 0]
    with pytest.raises(GroupActionError):
        vertex_permutation(keys, np.array([[1, 0], [2, 0]]))
    with pytest.raises(GroupActionError):
        vertex_permutation(keys[:0], np.array([[1, 0]]))


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
