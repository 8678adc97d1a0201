from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosgraphs import sunflower as sunmod
from sosgraphs.clique import (
    brute_force_maximum_cliques,
    clique_number,
    enumerate_max_cliques_through,
)
from sosgraphs.roots import build_root_system, parse_label, reflect
from sosgraphs.sunflower import (
    count_sunflower_max_cliques,
    count_sunflowers_direct,
    is_sunflower,
    pairwise_is_sunflower,
    perm_orbit_labels,
    signed_permutation_roots,
    sunflowers_through,
)

from oracles import (
    closure,
    closure_orbit_labels,
    enumerated_sunflower_census,
    plain_permutation_roots,
)
from test_acceptance import SUNFLOWERS

# (cliques, sunflowers, printed percentage)
SUNFLOWER_ROWS = {
    ("G2", 1): (20, 0, "0.0"), ("G2", 2): (6, 6, "100.0"),
    ("F4", 1): (24, 0, "0.0"), ("F4", 2): (1152, 192, "16.7"),
    ("F4", 3): (4992, 896, "17.9"), ("F4", 4): (96, 64, "66.7"),
    ("E6", 1): (432, 32, "7.4"), ("E6", 2): (4320, 0, "0.0"),
    ("E6", 3): (17280, 1280, "7.4"), ("E6", 4): (432, 32, "7.4"),
    ("E7", 1): (576, 0, "0.0"), ("E7", 2): (120960, 0, "0.0"),
    ("E7", 3): (483840, 15360, "3.2"),
    ("E8", 1): (17280, 128, "0.7"),
}


def test_example_non_sunflower_clique_e8_k3(mgraph):
    v1 = tuple(2 * x for x in (1, -1, 1, 0, -1, -1, 1, 0))
    v2 = tuple(2 * x for x in (-1, -1, 1, -1, 0, -1, 1, 0))
    v3 = tuple(2 * x for x in (1, 0, 1, -1, 1, -1, 1, 0))
    g = mgraph("E8", 3)
    have = set(g.vertices.as_tuples())
    assert {v1, v2, v3} <= have
    for a, b in [(v1, v2), (v1, v3), (v2, v3)]:
        assert tuple(x - y for x, y in zip(a, b)) in have
    verdict = is_sunflower([v1, v2, v3])
    assert not verdict.is_sunflower
    assert not pairwise_is_sunflower([v1, v2, v3])


def test_f4_sunflower_clique():
    clique = [(4, 4, 0, 0), (4, 0, 4, 0), (4, 0, 0, 4)]
    verdict = is_sunflower(clique)
    assert verdict.is_sunflower
    assert verdict.core == frozenset({0})
    assert verdict.column_profile == (3, 1, 1, 1)


def test_pair_with_identical_supports_is_sunflower():
    verdict = is_sunflower([(1, 2, 3), (4, 5, 6)])
    assert verdict.is_sunflower  # petals may be empty
    assert verdict.core == frozenset({0, 1, 2})


def test_pair_disjoint_supports_is_not_sunflower():
    # empty core violates the convention
    assert not is_sunflower([(1, 0), (0, 1)]).is_sunflower
    assert not pairwise_is_sunflower([(1, 0), (0, 1)])


def test_singletons_rejected():
    with pytest.raises(ValueError):
        is_sunflower([(1, 2)])
    with pytest.raises(ValueError):
        pairwise_is_sunflower([])
    with pytest.raises(ValueError):
        is_sunflower([(1,), (1, 2)])


@given(
    st.integers(2, 6).flatmap(
        lambda p: st.lists(
            st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(tuple),
            min_size=p,
            max_size=p,
        )
    )
)
@settings(max_examples=10_000, deadline=None)
def test_column_characterization_matches_pairwise(vectors):
    assert is_sunflower(vectors).is_sunflower == pairwise_is_sunflower(vectors)


# |H|: W(A2), W(B4), W(D5), W(A3), W(D4)
H_ORDERS = {"G2": 6, "F4": 384, "E6": 1920, "A3": 24, "D4": 192}


def _d_base_on(coords, dim: int) -> set:
    """The simple roots of D(l) placed on the given coordinates."""
    out = set()
    for root in build_root_system("D", len(coords)).simple_roots:
        vec = [0] * dim
        for c, x in zip(coords, root):
            vec[c] = x
        out.add(tuple(vec))
    return out


@pytest.mark.parametrize("label", sorted([*H_ORDERS, "E7", "E8"]))
def test_permutation_subgroup_generators(label):
    """The derived generators are signed coordinate permutations that keep
    the root set, and they generate the expected group."""
    rs = parse_label(label)
    roots = signed_permutation_roots(rs)
    dim = rs.ambient_dim
    units = [tuple(2 * (i == j) for j in range(dim)) for i in range(dim)]
    for alpha in roots:
        images = [reflect(alpha, u) for u in units]
        assert sorted(tuple(abs(x) for x in w) for w in images) == sorted(units)
        assert {reflect(alpha, r) for r in rs.roots} == rs.root_set
    # W(D8) and W(D6) x W(A1) are too large to close: compare the generators.
    if label == "E8":
        assert set(roots) == _d_base_on(range(8), 8)
        return
    if label == "E7":
        assert set(roots) == _d_base_on(range(1, 7), 8) | {(2, 0, 0, 0, 0, 0, 0, -2)}
        return
    generic = tuple(range(2, 2 * dim + 2, 2))
    orbit = closure([generic], [partial(reflect, alpha) for alpha in roots])
    assert len(orbit) == H_ORDERS[label]


def test_e7_level1_has_seven_perm_orbits(mgraph):
    rs = build_root_system("E7")
    vs = mgraph("E7", 1).vertices
    assert perm_orbit_labels(plain_permutation_roots(rs), vs).max() + 1 == 7
    assert perm_orbit_labels(signed_permutation_roots(rs), vs).max() + 1 == 3


TIER1_ROWS = [
    ("G2", 1), ("G2", 2), ("F4", 1), ("F4", 2), ("F4", 3), ("F4", 4),
    ("E6", 1), ("E6", 2), ("E6", 3), ("E6", 4), ("E7", 1), ("E7", 2),
    ("E7", 3), ("E7", 7), ("E8", 1), ("E8", 2),
]


@pytest.mark.parametrize("label,k", TIER1_ROWS)
def test_perm_labels_match_closure_oracle(label, k, mgraph):
    roots = signed_permutation_roots(build_root_system(label))
    vs = mgraph(label, k).vertices
    maps = [partial(reflect, alpha) for alpha in roots]
    assert perm_orbit_labels(roots, vs).tolist() == closure_orbit_labels(vs.as_tuples(), maps)


def test_identity_only_group_gives_singleton_orbits(mgraph):
    g = mgraph("G2", 2)
    labels = perm_orbit_labels([], g.vertices)
    assert sorted(labels.tolist()) == list(range(g.n))


@pytest.mark.parametrize("label,k", sorted(SUNFLOWER_ROWS))
def test_sunflower_census_rows(label, k, mgraph):
    cliques, sunflowers, pct = SUNFLOWER_ROWS[(label, k)]
    rs = build_root_system(label)
    census = count_sunflower_max_cliques(mgraph(label, k), rs)
    assert census.total_maximum_cliques == cliques
    assert census.sunflower_cliques == sunflowers
    assert census.percentage_str() == pct


@pytest.mark.parametrize("label,k", [
    ("G2", 2), ("F4", 2), ("F4", 4), ("E6", 1),
    ("A3", 1), ("A3", 2), ("D4", 1), ("D4", 2), ("D4", 3), ("D4", 4),
])
def test_census_agrees_with_direct_classification(label, k, mgraph):
    """Oracle: classify every brute-forced maximum clique directly."""
    g = mgraph(label, k)
    cliques = brute_force_maximum_cliques(g)
    census = count_sunflower_max_cliques(g, parse_label(label))
    assert census.sunflower_cliques == count_sunflowers_direct(g, cliques)
    assert census.total_maximum_cliques == len(cliques)


# Rows the unpruned enumeration finishes in seconds; E8 k=3 takes about 30 s.
ORACLE_ROWS = [
    *((label, k) for label, k in sorted(SUNFLOWERS) if label != "E8"),
    ("E8", 1), ("E8", 2),
    pytest.param("E8", 3, marks=pytest.mark.slow),
    pytest.param("E8", 8, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("label,k", ORACLE_ROWS)
def test_census_matches_enumeration_oracle(label, k, mgraph):
    g = mgraph(label, k)
    rs = build_root_system(label)
    census = count_sunflower_max_cliques(g, rs)
    got = (census.omega, census.total_maximum_cliques, census.sunflower_cliques)
    assert got == enumerated_sunflower_census(g, rs)
    assert got[1:] == SUNFLOWERS[(label, k)][:2]


def _random_clique_through(g, data) -> list[int]:
    v = data.draw(st.integers(0, g.n - 1))
    clique = [v]
    cand = set(g.neighbors(v).tolist())
    size = data.draw(st.integers(1, 7))
    while cand and len(clique) < size:
        w = data.draw(st.sampled_from(sorted(cand)))
        clique.append(w)
        cand &= set(g.neighbors(w).tolist())
    return clique


@pytest.mark.parametrize("label,k", [("F4", 3), ("E6", 3), ("E7", 4)])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_pairwise_core_petal_test_matches_column_profile(label, k, mgraph, data):
    """With v fixed, {v} + C is a sunflower iff every w in C has one
    non-empty core supp(v) & supp(w) and the petals are pairwise disjoint."""
    g = mgraph(label, k)
    clique = _random_clique_through(g, data)
    if len(clique) < 2:
        return
    masks = sunmod._support_masks(g.vertices.vectors[clique]).tolist()
    v, rest = masks[0], masks[1:]
    cores = {v & w for w in rest}
    core = cores.pop()
    petals = [w & ~core for w in rest]
    pairwise = not cores and core != 0 and all(
        a & b == 0 for i, a in enumerate(petals) for b in petals[i + 1 :]
    )
    vectors = [tuple(int(x) for x in g.vertices.vectors[u]) for u in clique]
    assert pairwise == is_sunflower(vectors).is_sunflower


def test_non_divisible_sunflower_sum_raises(mgraph, monkeypatch):
    """F4 k=1 has omega 7 and 48 vertices: one extra sunflower per vertex
    adds 48 to the weighted sum, which 7 does not divide."""
    real = sunmod.sunflowers_through
    monkeypatch.setattr(sunmod, "sunflowers_through", lambda g, v, omega: real(g, v, omega) + 1)
    with pytest.raises(ArithmeticError, match="sunflower count"):
        count_sunflower_max_cliques(mgraph("F4", 1), build_root_system("F4"))


def test_sf_constant_on_perm_orbits(mgraph):
    """Per-vertex counts from listed cliques equal sunflowers_through and
    are constant on every H-orbit."""
    g = mgraph("F4", 3)
    rs = build_root_system("F4")
    labels = perm_orbit_labels(signed_permutation_roots(rs), g.vertices)
    omega = clique_number(g)
    vecs = g.vertices.vectors

    def sf(v):
        count = 0
        for clique in enumerate_max_cliques_through(g, v, omega):
            vt = [tuple(int(x) for x in vecs[i]) for i in clique]
            count += is_sunflower(vt).is_sunflower
        return count

    per_vertex = np.array([sf(v) for v in range(g.n)])
    assert per_vertex.tolist() == [sunflowers_through(g, v, omega) for v in range(g.n)]
    for label in np.unique(labels):
        assert len(set(per_vertex[labels == label].tolist())) == 1
    assert per_vertex.any()


def test_some_weyl_element_breaks_the_sunflower_property(mgraph):
    """Reflections can change supports; find one sunflower that stops being one."""
    g = mgraph("F4", 4)
    rs = build_root_system("F4")
    omega = clique_number(g)
    vecs = g.vertices.vectors
    vertex_keys = set(g.vertices.as_tuples())
    for v in range(g.n):
        for clique in enumerate_max_cliques_through(g, v, omega):
            vt = [tuple(int(x) for x in vecs[i]) for i in clique]
            if not is_sunflower(vt).is_sunflower:
                continue
            for alpha in rs.simple_roots:
                image = [reflect(alpha, w) for w in vt]
                assert all(w in vertex_keys for w in image)
                if not is_sunflower(image).is_sunflower:
                    return
    pytest.fail("no reflection changed any sunflower verdict")


def test_census_totals_match_clique_module(mgraph):
    from sosgraphs.clique import count_maximum_cliques

    for label, k in [("E6", 3), ("E7", 2)]:
        g = mgraph(label, k)
        rs = build_root_system(label)
        assert (
            count_sunflower_max_cliques(g, rs).total_maximum_cliques
            == count_maximum_cliques(g).total_maximum_cliques
        )
