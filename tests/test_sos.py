import dataclasses
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosgraphs import sos as sosmod
from sosgraphs.roots import (
    _cartan_integers,
    build_root_system,
    encode_rows,
    key_index,
    parse_label,
    reflection_permutations,
)
from sosgraphs.sos import strong_orthogonality_graph, vertex_set

from oracles import (
    all_pairs_so_graph,
    as_tuples,
    dfs_vertex_sets,
    enumerate_sos,
    listed_vertex_set,
    negate,
    reflect,
    reflect_rows,
    strongly_orthogonal,
)

# |V| column of the census table
VCOUNT = {
    ("G2", 1): 12, ("G2", 2): 6,
    ("F4", 1): 48, ("F4", 2): 120, ("F4", 3): 240, ("F4", 4): 24,
    ("E6", 1): 72, ("E6", 2): 270, ("E6", 3): 720, ("E6", 4): 72,
    ("E7", 1): 126, ("E7", 2): 756, ("E7", 3): 2072, ("E7", 4): 4158,
    ("E7", 5): 7560, ("E7", 6): 10080, ("E7", 7): 576,
    ("E8", 1): 240, ("E8", 2): 2160,
}


@pytest.mark.parametrize("label,k", sorted(VCOUNT))
def test_vertex_counts(label, k):
    rs = build_root_system(label)
    assert len(vertex_set(rs, k)) == VCOUNT[(label, k)]


def test_strong_orthogonality_graph_g2():
    g2 = build_root_system("G2")
    adj = strong_orthogonality_graph(g2)
    assert adj.shape == (12, 12)
    assert not adj.diagonal().any()
    assert np.array_equal(adj, adj.T)
    assert (adj.sum(axis=1) == 2).all()


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "E7", "E8", "A3", "D4"])
def test_strong_orthogonality_graph_matches_pairwise_test(label):
    rs = parse_label(label)
    adj = strong_orthogonality_graph(rs)
    want = [[strongly_orthogonal(rs, a, b) for b in rs.roots] for a in rs.roots]
    assert adj.dtype == bool and adj.tolist() == want


def test_so_pair_counts_brute_force():
    """Frozen from direct pair enumeration over the root sets."""

    def pairs(label):
        rs = build_root_system(label)
        return sum(
            strongly_orthogonal(rs, a, b)
            for a, b in itertools.combinations(rs.roots, 2)
        )

    assert pairs("G2") == 12  # 12 ordered partners / 2-regular graph
    assert pairs("E8") == 15120  # 240 * 126 / 2
    assert pairs("E8") == vertex_set(build_root_system("E8"), 2).sos_count()
    # cross-check against the deduplicated sums column
    assert len(vertex_set(build_root_system("E8"), 2)) == 2160


def test_a1_has_no_so_pairs():
    a1 = build_root_system("A", 1)
    assert not strong_orthogonality_graph(a1).any()
    assert list(enumerate_sos(a1, 2)) == []


def test_enumerate_sos_basic():
    g2 = build_root_system("G2")
    sos2 = list(enumerate_sos(g2, 2))
    assert len(sos2) == 12
    assert sos2 == sorted(sos2)  # lexicographic stream
    for a, b in sos2:
        assert strongly_orthogonal(g2, a, b)
    # k beyond the maximum is empty
    assert list(enumerate_sos(build_root_system("E6"), 5)) == []
    with pytest.raises(ValueError):
        next(enumerate_sos(g2, 0))


def test_f4_contains_published_maximal_sos():
    f4 = build_root_system("F4")
    target = frozenset(
        {(2, 2, 0, 0), (2, -2, 0, 0), (0, 0, 2, 2), (0, 0, 2, -2)}
    )
    assert any(frozenset(s) == target for s in enumerate_sos(f4, 4))


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "E7"])
def test_level1_vertices_are_roots(label):
    rs = build_root_system(label)
    assert set(as_tuples(vertex_set(rs, 1))) == frozenset(rs.roots)
    assert (vertex_set(rs, 1).multiplicity == 1).all()


@pytest.mark.parametrize("label,k", [("E6", 2), ("E6", 4), ("E7", 3), ("E8", 2)])
def test_simply_laced_vertex_norms(label, k):
    vs = vertex_set(build_root_system(label), k)
    norms = (vs.vectors.astype(np.int64) ** 2).sum(axis=1)
    assert set(norms.tolist()) == {8 * k}


def test_g2_k2_multiplicities():
    vs = vertex_set(build_root_system("G2"), 2)
    assert vs.multiplicity.tolist() == [2] * 6
    assert vs.sos_count() == 12


def test_e8_k2_multiplicity_seven():
    vs = vertex_set(build_root_system("E8"), 2)
    assert set(vs.multiplicity.tolist()) == {7}


def test_f4_k4_sum_structure():
    vs = vertex_set(build_root_system("F4"), 4)
    assert len(vs) == 24
    for row in vs.vectors:
        nz = row[row != 0]
        assert nz.size == 2 and set(np.abs(nz).tolist()) == {4}


@pytest.mark.parametrize("label,kmax", [("G2", 2), ("F4", 4), ("E6", 4), ("E7", 4)])
def test_vertex_set_matches_streamed_sums(label, kmax):
    """Oracle: deduplicate sums of the streamed SOS enumeration."""
    rs = build_root_system(label)
    for k in range(1, kmax + 1):
        sums = {
            tuple(sum(col) for col in zip(*s)) for s in enumerate_sos(rs, k)
        }
        assert sums == set(as_tuples(vertex_set(rs, k)))


def test_vertex_set_closed_under_negation():
    for label, k in [("F4", 3), ("E7", 4), ("E8", 3)]:
        vs = vertex_set(build_root_system(label), k)
        have = set(as_tuples(vs))
        assert {negate(v) for v in have} == have


@given(st.sampled_from(["G2", "F4", "E6"]), st.data())
@settings(max_examples=25, deadline=None)
def test_reflections_permute_sos(label, data):
    """Applying any simple reflection to every SOS is a bijection."""
    rs = build_root_system(label)
    k = data.draw(st.integers(1, rs.max_sos_size))
    alpha = data.draw(st.sampled_from(rs.simple_roots))
    all_sos = {frozenset(s) for s in enumerate_sos(rs, k)}
    mapped = {frozenset(reflect(alpha, r) for r in s) for s in all_sos}
    assert mapped == all_sos


def test_vertex_rows_sorted_lexicographically():
    vs = vertex_set(build_root_system("E7"), 3)
    rows = as_tuples(vs)
    assert rows == sorted(rows)
    keys = vs.keys
    assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize(
    "label,max_sos", [("G2", 2), ("F4", 4), ("E6", 4), ("E7", 7), ("E8", 8)]
)
def test_max_sos_size_is_the_so_clique_number(label, max_sos):
    """Largest SOS == clique number of the strong orthogonality graph.

    Independent of the stored max_sos_size shortcut: solved by branch and
    bound on the pair graph. E6 is the one case strictly below the rank.
    """
    from sosgraphs.clique import max_clique_size_bitset

    rs = build_root_system(label)
    adj = strong_orthogonality_graph(rs)
    packed = np.packbits(adj, axis=1, bitorder="little")
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    assert max_clique_size_bitset(rows, (1 << len(rows)) - 1) == max_sos
    assert max_sos <= rs.rank


FIXTURES = ["A3", "A5", "A7", "D4", "D5", "D6"]
ORACLE_ROWS = [
    (label, k)
    for label in ["G2", "F4", "E6", "E7", *FIXTURES]
    for k in range(1, parse_label(label).max_sos_size + 1)
] + [("E8", 1), ("E8", 2), ("E8", 3)]
SLOW_ORACLE_ROWS = [pytest.param("E8", k, marks=pytest.mark.slow) for k in range(4, 9)]


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "E7", "E8", *FIXTURES])
def test_strong_orthogonality_graph_matches_all_pairs_lookup(label):
    """Looking up sums and differences of orthogonal pairs alone gives the
    graph that looking them up for every pair gives."""
    rs = parse_label(label)
    assert np.array_equal(strong_orthogonality_graph(rs), all_pairs_so_graph(rs))


@pytest.mark.parametrize("label,k", ORACLE_ROWS + SLOW_ORACLE_ROWS)
def test_vertex_set_matches_dfs_oracle(label, k):
    """The orbit closure with counted multiplicities equals the whole-SOS
    depth-first enumeration, row for row."""
    rs = parse_label(label)
    # The default E8 rows stay clear of the 10 s full-depth E8 pass.
    want = dfs_vertex_sets(rs, 3 if label == "E8" and k <= 3 else rs.max_sos_size)[k]
    vs = vertex_set(rs, k)
    assert vs.vectors.dtype == want.vectors.dtype and vs.multiplicity.dtype == np.int64
    assert np.array_equal(vs.vectors, want.vectors)
    assert np.array_equal(vs.multiplicity, want.multiplicity)
    assert np.array_equal(vs.keys, encode_rows(vs.vectors))


@pytest.mark.parametrize("label,k", ORACLE_ROWS)
def test_sos_count_matches_enumeration(label, k):
    rs = parse_label(label)
    assert vertex_set(rs, k).sos_count() == sum(1 for _ in enumerate_sos(rs, k))


@pytest.mark.parametrize("label,k", ORACLE_ROWS + SLOW_ORACLE_ROWS)
def test_orbit_counts_match_listing_and_enumeration(label, k):
    """The recursion's dominant vertices are those of the seed listing, and
    its count per W-orbit is |O| mult(O) there and the number of listed
    SOS summing into O in the depth-first enumeration."""
    rs = parse_label(label)
    counts = sosmod._orbit_counts(rs, k)
    listed = listed_vertex_set(rs, k)
    kmax = 3 if label == "E8" and k <= 3 else rs.max_sos_size
    enumerated = dfs_vertex_sets(rs, kmax)[k]
    assert np.array_equal(listed.vectors, enumerated.vectors)
    dominant = np.flatnonzero((listed.vectors @ np.asarray(rs.simple_roots).T >= 0).all(axis=1))
    assert sorted(counts) == sorted(map(tuple, listed.vectors[dominant].tolist()))
    sizes = np.bincount(listed.orbit)
    per_orbit = np.bincount(listed.orbit, weights=enumerated.multiplicity).astype(np.int64)
    for x in dominant.tolist():
        o = listed.orbit[x]
        assert counts[tuple(listed.vectors[x].tolist())] == sizes[o] * listed.multiplicity[x]
        assert counts[tuple(listed.vectors[x].tolist())] == per_orbit[o]
    vs = vertex_set(rs, k)
    for have, want in [
        (vs.vectors, listed.vectors),
        (vs.multiplicity, listed.multiplicity),
        (vs.orbit, listed.orbit),
        (vs.keys, listed.keys),
        (vs.forest.perms, listed.forest.perms),
        (vs.forest.pairing, listed.forest.pairing),
    ]:
        assert have.dtype == want.dtype and np.array_equal(have, want)


def _corrupt_subsystem(monkeypatch, rs, depth):
    """Enlarge the first orbit size of the table reached from R by
    following the first dominant root depth times; return that table."""
    c = np.ones(len(rs.roots), dtype=bool).tobytes()
    for _ in range(depth):
        c = sosmod.subsystem(rs, c).children[0]
    table = sosmod.subsystem(rs, c)
    sizes = table.sizes.copy()
    sizes[0] += 1
    monkeypatch.setitem(sosmod._SUBSYSTEMS, (rs.label, c), dataclasses.replace(table, sizes=sizes))
    return table


@pytest.mark.parametrize("label,k,depth", [("E7", 7, 0), ("E7", 5, 2), ("E8", 8, 1), ("E7", 6, 3)])
def test_corrupted_subsystem_orbit_size_raises_at_its_level(monkeypatch, label, k, depth):
    """One orbit size too many in one cached candidate-set table breaks the
    exact division by the remaining k at that table, and the error names it."""
    rs = parse_label(label)
    table = _corrupt_subsystem(monkeypatch, rs, depth)
    with pytest.raises(
        ArithmeticError,
        match=f"{k - depth}-SOS of a candidate set of {len(table.roots)} roots: .* "
        f"not divisible by k={k - depth}$",
    ):
        vertex_set(rs, k)


@pytest.mark.parametrize("label,k", [("G2", 2), ("F4", 3), ("E7", 4), ("E8", 2)])
def test_corrupted_top_level_count_raises(monkeypatch, label, k):
    """One SOS too many in one W-orbit's count breaks the exact division
    by the orbit size, and the error names that level."""
    true_counts = sosmod._orbit_counts

    def corrupted(rs, depth):
        counts = dict(true_counts(rs, depth))
        counts[next(iter(counts))] += 1
        return counts

    monkeypatch.setattr(sosmod, "_orbit_counts", corrupted)
    with pytest.raises(ArithmeticError, match=f"{label} k={k}: .* divisible by the orbit sizes"):
        vertex_set(parse_label(label), k)


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "E7", "E8", "D6", "A7"])
def test_subsystem_tables_are_closed_and_cover_their_roots(monkeypatch, label):
    """Every candidate set reached at any k is closed under its own
    reflections, its dominant roots' orbits cover it, and each dominant
    root pairs non-negatively with the set's base."""
    rs = parse_label(label)
    monkeypatch.setattr(sosmod, "_SUBSYSTEMS", {})
    for k in range(1, rs.max_sos_size + 1):
        vertex_set(rs, k)
    assert {lab for lab, _ in sosmod._SUBSYSTEMS} == {rs.label}
    roots = np.asarray(rs.roots)
    for c, table in [(c, t) for (_, c), t in sosmod._SUBSYSTEMS.items() if t.roots.size]:
        assert np.array_equal(table.roots, roots[np.frombuffer(c, dtype=bool)])
        images = reflect_rows(table.roots, table.roots)
        assert (key_index(encode_rows(table.roots), encode_rows(images)) >= 0).all()
        assert table.sizes.sum() == len(table.roots)
        assert (roots[table.thetas] @ table.base.T >= 0).all()


def test_a_vertex_set_lives_as_long_as_its_caller_holds_it():
    """Nothing but the caller keeps a vertex set: two calls give distinct
    objects with equal arrays, and a dropped one is freed at once."""
    rs = parse_label("E7")
    vs, again = vertex_set(rs, 3), vertex_set(rs, 3)
    assert again is not vs
    for name in ("vectors", "multiplicity", "orbit", "keys"):
        assert np.array_equal(getattr(again, name), getattr(vs, name))
    for name in ("perms", "pairing", "parent", "gen", "root", "depth"):
        assert np.array_equal(getattr(again.forest, name), getattr(vs.forest, name))
    dropped = weakref.ref(vs)
    del vs
    assert dropped() is None


def test_keys_are_encoded_once(monkeypatch):
    """The closure encodes the keys and the vertex set keeps that array:
    nothing encodes the whole vertex set again, and the keys are the rows'."""
    real_closure, closures = sosmod.weyl_closure, []
    real_encode, encoded = sosmod.encode_rows, []

    def closure(*args):
        closures.append(real_closure(*args))
        return closures[-1]

    def encode(rows):
        encoded.append(len(rows))
        return real_encode(rows)

    monkeypatch.setattr(sosmod, "weyl_closure", closure)
    monkeypatch.setattr(sosmod, "encode_rows", encode)
    vs = vertex_set(build_root_system("E7"), 3)
    assert len(closures) == 1 and vs.keys is closures[0][1]
    assert max(encoded) < len(vs)
    assert vs.keys.dtype == np.int64 and np.array_equal(vs.keys, encode_rows(vs.vectors))


@pytest.mark.parametrize("label,k", [("G2", 1), ("E7", 4), ("D6", 3), ("E8", 9)])
def test_reflections_are_kept_from_the_closure(label, k):
    """The simple-reflection permutations are one (rank, n) int32 array
    built from the closure's Cartan integers and equal to the lookup on the
    rows; the same rows with their Cartan integers from one product, as a
    graph file's are, get the same action from the same function."""
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    perms = vs.forest.perms
    assert perms.dtype == np.int32 and perms.shape == (rs.rank, len(vs))
    assert np.array_equal(perms, reflection_permutations(rs.simple_roots, vs.vectors))
    cartan = _cartan_integers(vs.vectors, np.asarray(rs.simple_roots)).T
    fresh = sosmod.closed_vertex_set(
        vs.label, vs.k, vs.vectors, vs.multiplicity, vs.orbit, vs.keys, cartan
    )
    assert fresh.forest.perms.dtype == np.int32 and np.array_equal(fresh.forest.perms, perms)
    for name in ("parent", "gen", "root", "depth"):
        assert np.array_equal(getattr(fresh.forest, name), getattr(vs.forest, name))


@pytest.mark.parametrize("label,k", ORACLE_ROWS)
def test_pairing_is_the_exact_cartan_integers(label, k):
    """The kept pairing is <x, a_j^v> = 2<x, a_j>/<a_j, a_j> itself, as the
    closure's walk carried it, not a multiple of it."""
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    simple = np.asarray(rs.simple_roots, dtype=np.int64)
    assert vs.forest.pairing.shape == (len(vs), rs.rank)
    assert np.array_equal(vs.forest.pairing, _cartan_integers(vs.vectors, simple).T)


@pytest.mark.parametrize("label,k", [("G2", 2), ("F4", 2), ("E6", 2)])
def test_adjacent_is_difference_membership(label, k):
    """The edge test against tuple arithmetic, for broadcast index arrays,
    a slice and a pair of ints."""
    vs = vertex_set(build_root_system(label), k)
    rows = as_tuples(vs)
    members = set(rows)
    want = np.array([[tuple(a - b for a, b in zip(u, v)) in members for v in rows] for u in rows])
    ids = np.arange(len(vs))
    assert np.array_equal(vs.adjacent(ids[:, None], ids[None, :]), want)
    assert np.array_equal(vs.adjacent(3, slice(None)), want[3])
    assert vs.adjacent(1, 2) == want[1, 2] and vs.adjacent(2, 1) == want[2, 1]
