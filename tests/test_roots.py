import itertools
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosgraphs.roots import (
    RootSystemError,
    build_root_system,
    cartan_integer,
    dot,
    inner_product,
    is_root,
    negate,
    parse_label,
    reflect,
    reflection_matrix,
    root_system_from_json,
    root_system_to_json,
    strongly_orthogonal,
    sub,
)
from sosgraphs.graph import weyl_orbit_labels
from sosgraphs.sos import VertexSet, vertex_set

from oracles import closure, closure_orbit_labels

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
    for r in rs.roots:
        assert negate(r) in rs.root_set
    for alpha in rs.simple_roots:
        assert {reflect(alpha, r) for r in rs.roots} == rs.root_set


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
    assert inner_product(v, w) == 0
    # true <e1+e2, e1+e3> = 1, doubled-coordinate value 4
    assert inner_product((2, 2, 0, 0, 0, 0, 0, 0), (2, 0, 2, 0, 0, 0, 0, 0)) == 4
    with pytest.raises(RootSystemError):
        inner_product((2, 0), (2, 0, 0))


def test_is_root_examples():
    e8 = build_root_system("E8")
    assert is_root(e8, (2, 2, 0, 0, 0, 0, 0, 0))
    f4 = build_root_system("F4")
    assert not is_root(f4, (4, 0, 0, 0))  # 2*e1 has norm 4, not a root
    assert not is_root(f4, (0, 0, 0, 0))
    assert not is_root(e8, (0,) * 8)


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
            cartan_integer(alpha, beta)  # raises on non-integrality


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
    assert labels.tolist() == closure_orbit_labels(vs.as_tuples(), _weyl_maps(e7))
    assert sorted(np.bincount(labels).tolist()) == [126, 4032]


@pytest.mark.parametrize("label", ["G2", "F4", "E8"])
def test_reflection_matrix_properties(label):
    rs = build_root_system(label)
    n = rs.ambient_dim
    for alpha in rs.simple_roots:
        m = reflection_matrix(alpha)
        # involution: m @ m == identity
        square = [
            [sum(m[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert square == [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        ]
        # orthogonal: preserves the doubled inner product on roots
        for r in rs.roots[:20]:
            img = tuple(sum(m[i][j] * r[j] for j in range(n)) for i in range(n))
            assert all(x.denominator == 1 for x in img)
            img_int = tuple(int(x) for x in img)
            assert dot(img_int, img_int) == dot(r, r)
            assert img_int == reflect(alpha, r)


def test_reflect_rejects_off_lattice():
    g2 = build_root_system("G2")
    long_root = (4, -2, -2)
    with pytest.raises(RootSystemError):
        reflect(long_root, (1, 0, 0))


def test_json_round_trip():
    rs = build_root_system("F4")
    again = root_system_from_json(root_system_to_json(rs))
    assert again == rs


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
        assert sub(a, b) in rs.root_set
