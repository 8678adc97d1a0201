import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosgraphs.roots import (
    KEY_BASE,
    KEY_SHIFT,
    MAX_AMBIENT_DIM,
    RootSystemError,
    build_root_system,
    dot,
    encode_rows,
    parse_label,
    reflection_permutations,
    sub,
    weyl_closure,
)
from sosgraphs.graph import weyl_orbit_labels
from sosgraphs.sos import VertexSet, _seeds, vertex_set

from oracles import (
    as_tuples,
    closure,
    closure_orbit_labels,
    horner_keys,
    negate,
    orbitwise_closure,
    reflect,
    strongly_orthogonal,
)
from test_acceptance import TIER1
from test_sos import ORACLE_ROWS, SLOW_ORACLE_ROWS

EXPECTED = {
    "G2": (12, 2, 3, 6, 2),
    "F4": (48, 4, 4, 12, 4),
    "E6": (72, 6, 8, 12, 4),
    "E7": (126, 7, 8, 18, 7),
    "E8": (240, 8, 8, 30, 8),
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_exceptional_construction(label):
    count, rank, dim, h, max_sos = EXPECTED[label]
    rs = build_root_system(label)
    assert len(rs.roots) == count == rs.rank * rs.coxeter_number
    assert (rs.rank, rs.ambient_dim) == (rank, dim)
    assert rs.coxeter_number == h
    assert rs.max_sos_size == max_sos
    assert len(rs.simple_roots) == rank


def test_a_and_d_families():
    assert len(build_root_system("A", 1).roots) == 2
    assert set(build_root_system("A", 1).roots) == {(2, -2), (-2, 2)}
    assert len(build_root_system("A", 3).roots) == 12
    d4 = build_root_system("D", 4)
    # enumerate +-e_i +- e_j directly: 4 sign choices per unordered pair
    assert len(d4.roots) == 4 * len(list(itertools.combinations(range(4), 2)))
    assert d4.coxeter_number == 6


def test_bad_labels_and_ranks():
    with pytest.raises(RootSystemError):
        build_root_system("B", 3)
    with pytest.raises(RootSystemError):
        build_root_system("A")
    with pytest.raises(RootSystemError):
        build_root_system("D", 3)
    with pytest.raises(RootSystemError):
        build_root_system("E8", 8)
    with pytest.raises(RootSystemError):
        parse_label("Z9")
    assert parse_label("D4").label == "D4"


def test_ambient_dimension_limit():
    """int64 vertex keys hold 9 coordinates: A8 and D9 build, A9 and D10 do not."""
    assert build_root_system("A", 8).ambient_dim == 9
    assert build_root_system("D", 9).ambient_dim == 9
    for label, rank in [("A", 9), ("D", 10), ("A", 12)]:
        with pytest.raises(RootSystemError, match="at most 9"):
            build_root_system(label, rank)
    with pytest.raises(RootSystemError, match="at most 9"):
        parse_label("D10")


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_negation_and_reflection_closure(label):
    rs = build_root_system(label)
    roots = frozenset(rs.roots)
    for r in rs.roots:
        assert negate(r) in roots
    for alpha in rs.simple_roots:
        assert {reflect(alpha, r) for r in rs.roots} == roots


def test_doubled_norms():
    e8 = build_root_system("E8")
    assert {dot(r, r) for r in e8.roots} == {8}
    f4 = build_root_system("F4")
    assert {dot(r, r) for r in f4.roots} == {4, 8}
    g2 = build_root_system("G2")
    assert {dot(r, r) for r in g2.roots} == {8, 24}


def test_inner_product_examples():
    # true <e1+e2, e1-e2> = 0
    v = (2, 2, 0, 0, 0, 0, 0, 0)
    w = (2, -2, 0, 0, 0, 0, 0, 0)
    assert dot(v, w) == 0
    # true <e1+e2, e1+e3> = 1, doubled-coordinate value 4
    assert dot((2, 2, 0, 0, 0, 0, 0, 0), (2, 0, 2, 0, 0, 0, 0, 0)) == 4
    with pytest.raises(RootSystemError):
        dot((2, 0), (2, 0, 0))


def test_is_root_examples():
    e8 = build_root_system("E8")
    assert (2, 2, 0, 0, 0, 0, 0, 0) in frozenset(e8.roots)
    f4 = build_root_system("F4")
    assert (4, 0, 0, 0) not in frozenset(f4.roots)  # 2*e1 has norm 4, not a root
    assert (0, 0, 0, 0) not in frozenset(f4.roots)
    assert (0,) * 8 not in frozenset(e8.roots)


def test_strongly_orthogonal_examples():
    f4 = build_root_system("F4")
    e1 = (2, 0, 0, 0)
    e2 = (0, 2, 0, 0)
    # orthogonal but e1 - e2 is a root, so not strongly orthogonal
    assert dot(e1, e2) == 0 and not strongly_orthogonal(f4, e1, e2)
    e8 = build_root_system("E8")
    a = (2, 2, 0, 0, 0, 0, 0, 0)
    b = (2, -2, 0, 0, 0, 0, 0, 0)
    assert strongly_orthogonal(e8, a, b)
    assert not strongly_orthogonal(e8, a, a)
    assert not strongly_orthogonal(e8, a, negate(a))
    with pytest.raises(RootSystemError):
        strongly_orthogonal(e8, a, (4, 0, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("label", ["G2", "F4", "E6"])
def test_cartan_integers_all_pairs(label):
    rs = build_root_system(label)
    for alpha in rs.roots:
        for beta in rs.roots:
            reflect(alpha, beta)  # raises on a non-integral Cartan number


def test_simply_laced_orthogonality_is_strong():
    for label in ("E6", "E7", "E8"):
        rs = build_root_system(label)
        roots = rs.roots
        for a, b in itertools.combinations(roots[:60], 2):
            if b == negate(a):
                continue
            assert strongly_orthogonal(rs, a, b) == (dot(a, b) == 0)


def _weyl_maps(rs):
    return [partial(reflect, alpha) for alpha in rs.simple_roots]


def _root_vertex_set(rs) -> VertexSet:
    return VertexSet(
        label=rs.label, k=1, vectors=np.array(rs.roots, dtype=np.int32),
        multiplicity=np.ones(len(rs.roots), dtype=np.int64),
    )


def test_orbit_closure_examples():
    e8 = build_root_system("E8")
    assert len(closure([e8.roots[0]], _weyl_maps(e8))) == 240
    labels = weyl_orbit_labels(e8, _root_vertex_set(e8))
    assert np.bincount(labels).tolist() == [240]
    g2 = build_root_system("G2")
    short = (2, -2, 0)
    assert len(closure([short], _weyl_maps(g2))) == 6
    # full root set of G2: two orbits of 6 (short and long)
    labels = weyl_orbit_labels(g2, _root_vertex_set(g2))
    assert labels.tolist() == closure_orbit_labels(list(g2.roots), _weyl_maps(g2))
    assert sorted(np.bincount(labels).tolist()) == [6, 6]


def test_orbit_closure_e7_level4():
    e7 = build_root_system("E7")
    vs = vertex_set(e7, 4)
    labels = weyl_orbit_labels(e7, vs)
    assert labels.tolist() == closure_orbit_labels(as_tuples(vs), _weyl_maps(e7))
    assert sorted(np.bincount(labels).tolist()) == [126, 4032]


@pytest.mark.parametrize(
    "label,k,picks",
    [("G2", 1, [0, -1]), ("F4", 3, [0]), ("E6", 2, [5]), ("E7", 4, [0, 1, -1]), ("D5", 3, [2])],
)
def test_weyl_closure_matches_closure_oracle(label, k, picks):
    rs = parse_label(label)
    seeds = vertex_set(rs, k).vectors[picks]
    rows, keys, orbit, _ = weyl_closure(seeds, rs.simple_roots)
    want = sorted(closure([tuple(int(x) for x in row) for row in seeds], _weyl_maps(rs)))
    assert [tuple(row) for row in rows.tolist()] == want
    assert np.array_equal(keys, encode_rows(rows))
    assert orbit.tolist() == closure_orbit_labels(want, _weyl_maps(rs))


@pytest.mark.parametrize("label,k", ORACLE_ROWS + SLOW_ORACLE_ROWS)
def test_weyl_closure_matches_orbitwise_oracle(label, k):
    """The one search from all seeds gives the rows, keys and orbits of
    one search per orbit, and the permutations it records are the
    reflections looked up on the closed rows."""
    rs = parse_label(label)
    seeds = np.concatenate([rows for _, rows, _ in _seeds(rs, k)])
    rows, keys, orbit, perms = weyl_closure(seeds, rs.simple_roots)
    want_rows, want_keys, want_orbit = orbitwise_closure(seeds, rs.simple_roots)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(orbit, want_orbit)
    assert perms.dtype == np.int32 and perms.shape == (rs.rank, len(rows))
    assert np.array_equal(perms, reflection_permutations(rs.simple_roots, rows))


@pytest.mark.parametrize("label,k", TIER1)
def test_weyl_closure_orbits_match_weyl_orbit_labels(label, k):
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    rows, _, orbit, _ = weyl_closure(vs.vectors, rs.simple_roots)
    assert np.array_equal(rows, vs.vectors)
    assert np.array_equal(orbit, weyl_orbit_labels(rs, vs))


def test_weyl_closure_of_nothing_is_empty():
    e8 = parse_label("E8")
    rows, keys, orbit, perms = weyl_closure(np.empty((0, 8), dtype=np.int64), e8.simple_roots)
    assert rows.shape == (0, 8) and keys.size == 0 and orbit.size == 0
    assert perms.shape == (8, 0)


def test_weyl_closure_rejects_a_seed_off_the_lattice():
    """(1, 0, ..., 0) has half-integral Cartan coefficients on E8."""
    seed = np.zeros((1, 8), dtype=np.int64)
    seed[0, 0] = 1
    with pytest.raises(RootSystemError, match="lattice"):
        weyl_closure(seed, parse_label("E8").simple_roots)


def test_weyl_closure_rejects_an_orbit_leaving_the_key_range():
    """88 e1 is in range, but a sign change takes it to -88."""
    seed = np.zeros((1, 8), dtype=np.int64)
    seed[0, 0] = 88
    with pytest.raises(ValueError, match="digit range"):
        weyl_closure(seed, parse_label("E8").simple_roots)


@pytest.mark.parametrize("label", ["G2", "F4", "E8"])
def test_reflection_matrix_properties(label):
    """Each simple reflection is an involution that preserves the doubled
    inner product and maps the root set onto itself."""
    rs = build_root_system(label)
    roots = frozenset(rs.roots)
    for alpha in rs.simple_roots:
        assert reflect(alpha, alpha) == negate(alpha)
        for r in rs.roots:
            img = reflect(alpha, r)
            assert reflect(alpha, img) == r
            assert dot(img, img) == dot(r, r)
            assert img in roots


def test_reflect_rejects_off_lattice():
    g2 = build_root_system("G2")
    long_root = (4, -2, -2)
    with pytest.raises(RootSystemError):
        reflect(long_root, (1, 0, 0))


def test_encode_rows_rejects_coordinates_outside_the_digit_range():
    lo, hi = -KEY_SHIFT, KEY_BASE - KEY_SHIFT
    lex_sorted = np.array([[lo, 0], [lo, hi - 1], [0, lo], [hi - 1, hi - 1]])
    assert (np.diff(encode_rows(lex_sorted)) > 0).all()
    for bad in (lo - 1, hi):
        with pytest.raises(ValueError, match="digit range"):
            encode_rows(np.array([[0, 0], [0, bad]]))
    assert encode_rows(np.empty((0, 3), dtype=np.int64)).size == 0


@pytest.mark.parametrize("dim", range(1, MAX_AMBIENT_DIM + 1))
def test_encode_rows_matches_horner_at_the_digit_extremes(dim):
    """Rows of the extreme digits -32 and 95 (and one 0) at every
    dimension: the one-product keys equal Horner's rule, so no partial sum
    wraps, and stay strictly increasing on lex-sorted rows."""
    lo, hi = -KEY_SHIFT, KEY_BASE - KEY_SHIFT - 1
    digits = [lo, 0, hi] if dim < 6 else [lo, hi]
    rows = np.array(list(itertools.product(digits, repeat=dim)), dtype=np.int64)
    keys = encode_rows(rows)
    assert keys.dtype == np.int64
    assert np.array_equal(keys, horner_keys(rows))
    assert (np.diff(keys) > 0).all()
    assert keys[0] == 0 and keys[-1] == KEY_BASE**dim - 1
    assert np.array_equal(encode_rows(rows.astype(np.int32)), keys)


@given(st.sampled_from(["G2", "F4", "E6", "E7", "E8"]), st.data())
@settings(max_examples=60, deadline=None)
def test_reflection_preserves_inner_products(label, data):
    rs = build_root_system(label)
    alpha = data.draw(st.sampled_from(rs.simple_roots))
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    assert dot(reflect(alpha, a), reflect(alpha, b)) == dot(a, b)
    # basic root-pair fact: positive product and a != b means a - b is a root
    if dot(a, b) > 0 and a != b:
        assert sub(a, b) in frozenset(rs.roots)
