import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sosgraphs import roots as rootsmod
from sosgraphs.roots import (
    KEY_BASE,
    KEY_SHIFT,
    MAX_AMBIENT_DIM,
    GroupActionError,
    RootSystemError,
    _cartan_integers,
    build_root_system,
    dot,
    encode_rows,
    merge_labels,
    parse_label,
    reflection_permutations,
    simple_roots_of,
    weyl_closure,
)
from sosgraphs.graph import weyl_orbit_labels
from sosgraphs.sos import VertexSet, closed_vertex_set, vertex_set
from sosgraphs.sunflower import signed_permutation_roots

from oracles import (
    as_tuples,
    closure,
    closure_orbit_labels,
    csr_components,
    horner_keys,
    listed_seeds,
    lookup_permutations,
    negate,
    orbitwise_closure,
    pairwise_simple_roots,
    placeholder_vertex_set,
    positive_roots,
    reflect,
    strongly_orthogonal,
    sub,
)
from test_acceptance import TIER1
from test_sos import FIXTURES, ORACLE_ROWS, SLOW_ORACLE_ROWS

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
    roots = np.array(rs.roots, dtype=np.int32)
    return placeholder_vertex_set(rs.label, roots, np.zeros(len(roots), dtype=np.int32))


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
    one search per orbit; the Cartan integers it carries are those of the
    closed rows, and the permutations built from them are the reflections
    looked up on the closed rows."""
    rs = parse_label(label)
    seeds = _seed_rows(rs, k)
    rows, keys, orbit, cartan = weyl_closure(seeds, rs.simple_roots)
    want_rows, want_keys, want_orbit = orbitwise_closure(seeds, rs.simple_roots)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(orbit, want_orbit)
    simple = np.asarray(rs.simple_roots, dtype=np.int64)
    assert cartan.shape == (len(rows), rs.rank)
    assert np.array_equal(cartan, _cartan_integers(rows, simple).T)
    multiplicity = np.ones(len(rows), dtype=np.int64)
    vs = closed_vertex_set(rs.label, k, rows.astype(np.int32), multiplicity, orbit, keys, cartan)
    assert vs.forest.perms.dtype == np.int32 and vs.forest.perms.shape == (rs.rank, len(rows))
    assert np.array_equal(vs.forest.perms, lookup_permutations(rs.simple_roots, rows))


@pytest.mark.parametrize("label,k", TIER1)
def test_weyl_closure_orbits_match_weyl_orbit_labels(label, k):
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    rows, _, orbit, _ = weyl_closure(vs.vectors, rs.simple_roots)
    assert np.array_equal(rows, vs.vectors)
    assert np.array_equal(orbit, weyl_orbit_labels(rs, vs))


def test_weyl_closure_of_nothing_is_empty():
    e8 = parse_label("E8")
    rows, keys, orbit, cartan = weyl_closure(np.empty((0, 8), dtype=np.int64), e8.simple_roots)
    assert rows.shape == (0, 8) and keys.size == 0 and orbit.size == 0
    assert cartan.shape == (0, 8)


def test_weyl_closure_rejects_a_seed_off_the_lattice():
    """(1, 0, ..., 0) has half-integral Cartan coefficients on E8."""
    seed = np.zeros((1, 8), dtype=np.int64)
    seed[0, 0] = 1
    with pytest.raises(RootSystemError, match="lattice"):
        weyl_closure(seed, parse_label("E8").simple_roots)


def test_weyl_closure_rejects_an_orbit_leaving_the_key_range():
    """88 e1 is in range, but a sign change takes it to -88: its norm, far
    above 32, is refused before the walk."""
    seed = np.zeros((1, 8), dtype=np.int64)
    seed[0, 0] = 88
    with pytest.raises(ValueError, match="digit range"):
        weyl_closure(seed, parse_label("E8").simple_roots)


def _seed_rows(rs, k):
    return np.concatenate([rows for _, rows, _ in listed_seeds(rs, k)])


def _record_depths(monkeypatch):
    """Patch _antipodal_depth to record (dominant vertex, depth) per orbit."""
    real, seen = rootsmod._antipodal_depth, []

    def recorded(lam, *args):
        seen.append((lam, real(lam, *args)))
        return seen[-1][1]

    monkeypatch.setattr(rootsmod, "_antipodal_depth", recorded)
    return seen


HALVED_ROWS = [
    (label, k)
    for label in ["G2", "F4", "E7", "D4", "D5", "D6"]
    for k in range(1, parse_label(label).max_sos_size + 1)
] + [("E8", 1), ("E8", 2), ("E8", 3)] + [
    pytest.param("E8", k, marks=pytest.mark.slow) for k in range(4, 9)
]


@pytest.mark.parametrize("label,k", HALVED_ROWS)
def test_halved_walk_matches_full_walk_and_orbitwise_oracle(label, k, monkeypatch):
    """Every orbit of these rows holds -lam, so only half its levels are
    walked; the result equals the walk of every level and one search per
    orbit, and the depth is the number of positive roots not orthogonal
    to lam."""
    rs = parse_label(label)
    seeds = _seed_rows(rs, k)
    depths = _record_depths(monkeypatch)
    halved = weyl_closure(seeds, rs.simple_roots)
    assert depths and all(depth is not None for _, depth in depths)
    for lam, depth in depths:
        assert depth == np.count_nonzero(positive_roots(rs) @ np.array(lam[: rs.ambient_dim]))
    monkeypatch.setattr(rootsmod, "_antipodal_depth", lambda *args: None)
    full = weyl_closure(seeds, rs.simple_roots)
    want = orbitwise_closure(seeds, rs.simple_roots)
    for have in (halved, full):
        for got, expected in zip(have, want):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert np.array_equal(have[3], halved[3])


def test_orbits_without_their_negatives_take_the_full_walk(monkeypatch):
    """E6 and A4 orbits that do not hold -lam are walked to the bottom and
    still equal the oracle: E8 roots that are neither E6 roots nor
    orthogonal to E6 (E6 orbits of 27), and in A4 the permutations of e1,
    e1 + e2 and 2e1 + e2 - e5, beside a root, whose orbit is halved."""
    e6, e8 = parse_label("E6"), parse_label("E8")
    inside = np.asarray(e6.roots)
    a4_seeds = [(2, 0, 0, 0, 0), (2, 2, 0, 0, 0), (4, 2, 0, 0, -2), (2, -2, 0, 0, 0)]
    outside = [r for r in e8.roots if r not in set(e6.roots) and (inside @ np.array(r)).any()]
    for rs, seeds, halved in [
        (e6, np.array(outside[::7]), 0), (parse_label("A4"), np.array(a4_seeds), 1)
    ]:
        depths = _record_depths(monkeypatch)
        have = weyl_closure(seeds, rs.simple_roots)
        assert sum(depth is not None for _, depth in depths) == halved < len(depths)
        want = orbitwise_closure(seeds, rs.simple_roots)
        for got, expected in zip(have, want):
            assert np.array_equal(got, expected)
        simple = np.asarray(rs.simple_roots, dtype=np.int64)
        assert np.array_equal(have[3], _cartan_integers(have[0], simple).T)
        want = lookup_permutations(rs.simple_roots, have[0])
        assert np.array_equal(reflection_permutations(rs.simple_roots, have[0]), want)
    assert sorted(np.bincount(have[2]).tolist()) == [5, 10, 20, 60]  # S5 on the coordinates


@pytest.mark.parametrize("label,k", [("F4", 3), ("E7", 4), ("E8", 1), ("E8", 3)])
def test_weyl_closure_lookups_do_not_grow_with_depth(label, k, monkeypatch):
    """The closure looks up no key: the seeds are reduced to their dominant
    vertices, no level is looked up (E8 k=1 has 58), and no permutation:
    the closure returns the Cartan integers, and the vertex set builds its
    permutations from them."""
    rs = parse_label(label)
    real, calls = rootsmod.key_index, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rootsmod, "key_index", counted)
    weyl_closure(_seed_rows(rs, k), rs.simple_roots)
    assert calls == []


@pytest.mark.parametrize("label,k", ORACLE_ROWS)
def test_image_key_permutations_match_lookup_oracle(label, k):
    """Permutations from key arithmetic equal those from building, encoding
    and looking up every image row, both the closure's and the lookup's."""
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    want = lookup_permutations(rs.simple_roots, vs.vectors)
    assert np.array_equal(reflection_permutations(rs.simple_roots, vs.vectors), want)
    assert np.array_equal(vs.forest.perms, want)


@pytest.mark.parametrize(
    "rows,roots",
    [
        ([[0] * 8], parse_label("E8").simple_roots),  # n = 1: the mirror of 0 is itself
        ([[2, 0, 0, 0, 0, 0, 0, 2]], [(0, 2, 2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 2, -2, 0)]),
        ([[-2, 0, 0, 0, 0, 0, 0, -2], [2, 0, 0, 0, 0, 0, 0, 2]], [(2, 0, 0, 0, 0, 0, 0, 2)]),
        ([[-1, 1, 1, 1, 1, 1, 1, 1], [2, 0, 0, 0, 0, 0, 0, 2]], [(0, 2, -2, 0, 0, 0, 0, 0)]),
    ],
)
def test_lone_rows_match_lookup_oracle(rows, roots):
    """Sets of one or two rows, closed under negation or not, each under
    reflections that fix or swap them."""
    rows = np.array(sorted(rows), dtype=np.int64)
    want = lookup_permutations(roots, rows)
    have = reflection_permutations(roots, rows)
    assert have.dtype == np.int32 and np.array_equal(have, want)


def test_mirrored_lookup_still_refuses_an_escaping_image():
    """{theta, -theta} is closed under negation but not under a reflection
    that moves theta: the half that is looked up misses and raises."""
    rows = np.array([[-2, 0, 0, 0, 0, 0, 0, -2], [2, 0, 0, 0, 0, 0, 0, 2]])
    with pytest.raises(GroupActionError, match="not closed"):
        reflection_permutations([(2, 2, 0, 0, 0, 0, 0, 0)], rows)


@pytest.mark.parametrize("label,k", [("G2", 1), ("F4", 3), ("E7", 7), ("E8", 2), ("D5", 3)])
def test_mirrored_lookups_query_half_the_rows(label, k, monkeypatch):
    """On a vertex set closed under negation each root's images are looked
    up for at most ceil(n/2) rows; the rest are mirrored."""
    rs = parse_label(label)
    vs = vertex_set(rs, k)
    assert np.array_equal(np.sort(encode_rows(-vs.vectors)), vs.keys)
    real, queries = rootsmod.key_index, []

    def counted(keys, query):
        queries.append(np.asarray(query).size)
        return real(keys, query)

    monkeypatch.setattr(rootsmod, "key_index", counted)
    perms = reflection_permutations(rs.simple_roots, vs.vectors, vs.keys)
    assert sum(queries) <= rs.rank * ((len(vs) + 1) // 2)
    assert np.array_equal(perms, vs.forest.perms)


def test_reflection_permutations_refuse_rows_of_norm_32():
    """(24, 24, 0, ...) has doubled norm 33.9: its image keys could leave the
    digit range, so it is refused before any lookup, and so is a closure
    from it; ten times a root, (20, 20, 0, ...) of norm 28.3, is taken."""
    e8 = parse_label("E8")
    big = np.array([[24, 24, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="norm"):
        reflection_permutations(e8.simple_roots, big)
    with pytest.raises(ValueError, match="norm"):
        weyl_closure(big, e8.simple_roots)
    near = np.array([[20, 20, 0, 0, 0, 0, 0, 0]])
    rows = weyl_closure(near, e8.simple_roots)[0]
    assert len(rows) == 240 and np.array_equal(
        reflection_permutations(e8.simple_roots, rows), lookup_permutations(e8.simple_roots, rows)
    )


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "E7", "E8", *FIXTURES])
def test_simple_roots_match_pairwise_oracle(label):
    """The keyed base equals the pairwise one, for the system and for the
    subsystem H of signed coordinate permutations, each computed once."""
    rs = parse_label(label)
    assert simple_roots_of(rs.roots) == pairwise_simple_roots(rs.roots) == rs.simple_roots
    signed = [
        a for a in rs.roots if len({abs(x) for x in a if x}) == 1 and sum(1 for x in a if x) <= 2
    ]
    assert simple_roots_of(signed) == pairwise_simple_roots(signed)
    assert signed_permutation_roots(rs) is signed_permutation_roots(rs)
    assert signed_permutation_roots(rs) == pairwise_simple_roots(signed)
    positive = positive_roots(rs)
    assert [tuple(r) for r in positive.tolist()] == sorted(r for r in rs.roots if r > (0,) * len(r))


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


@st.composite
def partitions_with_pairs(draw):
    """n <= 40, a class id per index, and index pairs (self-pairs allowed)."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, [], []
    index = st.integers(0, n - 1)
    return n, draw(st.lists(index, min_size=n, max_size=n)), draw(st.lists(st.tuples(index, index)))


@given(partitions_with_pairs())
@example((0, [], []))
@example((5, [0, 1, 0, 3, 1], []))
@example((4, [0, 1, 2, 3], [(2, 2), (0, 0)]))
@example((6, [5, 4, 3, 2, 1, 0], [(5, 0), (1, 4), (3, 3), (2, 5)]))
@settings(max_examples=200, deadline=None)
def test_merge_labels_matches_the_csr_union(case):
    """merge_labels gives the oracle union of the starting classes and the
    pairs, each label its class's lowest index; merging the same pairs again
    returns the input itself, and the input is never written."""
    n, classes, pairs = case
    start = np.array([classes.index(c) for c in classes], dtype=np.int64)
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    before = start.copy()
    merged = merge_labels(start, a, b)
    assert np.array_equal(start, before)
    every = np.arange(n, dtype=np.int64)
    want = csr_components(n, np.concatenate([every, a]), np.concatenate([start, b]))
    assert np.array_equal(merged, want)
    assert all(merged[x] == np.flatnonzero(merged == merged[x])[0] for x in range(n))
    assert merge_labels(merged, a, b) is merged
    if not pairs:
        assert merged is start
