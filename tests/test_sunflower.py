from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosgraphs.clique import clique_number, enumerate_max_cliques_through
from sosgraphs.roots import RootSystemError, build_root_system, reflect
from sosgraphs.sunflower import (
    PermGroup,
    apply_perm,
    count_sunflower_max_cliques,
    count_sunflowers_direct,
    is_sunflower,
    pairwise_is_sunflower,
    perm_orbit_labels,
    permutation_subgroup,
)

from oracles import closure_orbit_labels

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


PERM_ORDERS = {"G2": 6, "F4": 24, "E6": 120, "E7": 1440, "E8": 40320}


@pytest.mark.parametrize("label", sorted(PERM_ORDERS))
def test_permutation_subgroup_generators(label):
    rs = build_root_system(label)
    group = permutation_subgroup(rs)
    assert group.order == PERM_ORDERS[label]
    for perm in group.generators:
        assert sorted(perm) == list(range(rs.ambient_dim))
        assert {apply_perm(perm, r) for r in rs.roots} == rs.root_set
    # closure of the generators reaches exactly the declared order
    elems = {tuple(range(rs.ambient_dim))}
    frontier = set(group.generators)
    while frontier:
        elems |= frontier
        frontier = {
            apply_perm(g, p) for g in group.generators for p in frontier
        } - elems
    assert len(elems) == group.order


def test_permutation_subgroup_unknown_system():
    with pytest.raises(RootSystemError):
        permutation_subgroup(build_root_system("A", 3))


def test_e7_level1_has_seven_perm_orbits(mgraph):
    rs = build_root_system("E7")
    labels = perm_orbit_labels(permutation_subgroup(rs), mgraph("E7", 1).vertices)
    assert labels.max() + 1 == 7


TIER1_ROWS = [
    ("G2", 1), ("G2", 2), ("F4", 1), ("F4", 2), ("F4", 3), ("F4", 4),
    ("E6", 1), ("E6", 2), ("E6", 3), ("E6", 4), ("E7", 1), ("E7", 2),
    ("E7", 3), ("E7", 7), ("E8", 1), ("E8", 2),
]


@pytest.mark.parametrize("label,k", TIER1_ROWS)
def test_perm_labels_match_closure_oracle(label, k, mgraph):
    group = permutation_subgroup(build_root_system(label))
    vs = mgraph(label, k).vertices
    maps = [partial(apply_perm, perm) for perm in group.generators]
    assert perm_orbit_labels(group, vs).tolist() == closure_orbit_labels(vs.as_tuples(), maps)


def test_identity_only_group_gives_singleton_orbits(mgraph):
    g = mgraph("G2", 2)
    identity = PermGroup(label="G2", dim=3, generators=((0, 1, 2),), order=1)
    labels = perm_orbit_labels(identity, g.vertices)
    assert sorted(labels.tolist()) == list(range(g.n))


@pytest.mark.parametrize("label,k", sorted(SUNFLOWER_ROWS))
def test_sunflower_census_rows(label, k, mgraph):
    cliques, sunflowers, pct = SUNFLOWER_ROWS[(label, k)]
    rs = build_root_system(label)
    census = count_sunflower_max_cliques(mgraph(label, k), rs)
    assert census.total_maximum_cliques == cliques
    assert census.sunflower_cliques == sunflowers
    assert census.percentage_str() == pct


@pytest.mark.parametrize("label,k", [("G2", 2), ("F4", 2), ("F4", 4), ("E6", 1)])
def test_census_agrees_with_direct_classification(label, k, mgraph):
    """Oracle: classify every brute-forced maximum clique directly."""
    from sosgraphs.clique import brute_force_maximum_cliques

    g = mgraph(label, k)
    rs = build_root_system(label)
    cliques = brute_force_maximum_cliques(g)
    direct = count_sunflowers_direct(g, cliques)
    census = count_sunflower_max_cliques(g, rs)
    assert census.sunflower_cliques == direct
    assert census.total_maximum_cliques == len(cliques)


def test_sf_constant_on_perm_orbits(mgraph):
    g = mgraph("F4", 4)
    rs = build_root_system("F4")
    labels = perm_orbit_labels(permutation_subgroup(rs), g.vertices)
    omega = clique_number(g)
    vecs = g.vertices.vectors

    def sf(v):
        count = 0
        for clique in enumerate_max_cliques_through(g, v, omega):
            vt = [tuple(int(x) for x in vecs[i]) for i in clique]
            count += is_sunflower(vt).is_sunflower
        return count

    orbit0 = np.flatnonzero(labels == labels[0])
    assert sf(int(orbit0[0])) == sf(int(orbit0[-1]))


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
