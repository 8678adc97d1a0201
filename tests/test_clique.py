import dataclasses
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosgraphs import clique as cliquemod
from sosgraphs.clique import (
    brute_force_maximum_cliques,
    clique_number,
    collect_cliques_of_size,
    count_cliques_of_size_bitset,
    count_maximal_cliques_by_size,
    count_maximum_cliques,
    enumerate_maximal_cliques,
    induced_bitrows,
    max_clique_size_bitset,
    maximal_clique_size_counts,
)
from sosgraphs.graph import GroupActionError, stabilizer_orbits
from sosgraphs.roots import parse_label

from oracles import (
    closure_orbit_labels,
    count_cliques_of_size,
    enumerate_max_cliques_through,
    reflect,
    single_level_census,
)

OMEGA = {
    ("G2", 1): 3, ("G2", 2): 2,
    ("F4", 1): 7, ("F4", 2): 3, ("F4", 3): 3, ("F4", 4): 3,
    ("E6", 1): 5, ("E6", 2): 3, ("E6", 3): 5, ("E6", 4): 5,
    ("E7", 1): 7, ("E7", 2): 6, ("E7", 3): 5, ("E7", 7): 1,
    ("E8", 1): 8, ("E8", 2): 8,
}

TOTALS = {
    ("G2", 1): 20, ("G2", 2): 6,
    ("F4", 1): 24, ("F4", 2): 1152, ("F4", 3): 4992, ("F4", 4): 96,
    ("E6", 1): 432, ("E6", 2): 4320, ("E6", 3): 17280, ("E6", 4): 432,
    ("E7", 1): 576, ("E7", 2): 120960, ("E7", 3): 483840,
    ("E8", 1): 17280, ("E8", 2): 4665600,
}


@pytest.mark.parametrize("label,k", sorted(OMEGA))
def test_clique_numbers(label, k, mgraph):
    assert clique_number(mgraph(label, k)) == OMEGA[(label, k)]


@pytest.mark.parametrize("label,k", sorted(TOTALS))
def test_census_totals(label, k, mgraph):
    census = count_maximum_cliques(mgraph(label, k))
    assert census.total_maximum_cliques == TOTALS[(label, k)]
    weighted = sum(n_i * c_i for n_i, c_i in census.per_orbit)
    assert weighted % census.omega == 0


# graphs small enough for the unassisted oracle
BRUTE = [
    ("G2", 1), ("G2", 2),
    ("F4", 1), ("F4", 2), ("F4", 3), ("F4", 4),
    ("E6", 1), ("E6", 2), ("E6", 4),
    ("E7", 7),
]


@pytest.mark.parametrize("label,k", BRUTE)
def test_brute_force_agreement(label, k, mgraph):
    g = mgraph(label, k)
    cliques = brute_force_maximum_cliques(g)
    census = count_maximum_cliques(g)
    assert len(cliques) == census.total_maximum_cliques
    assert all(len(c) == census.omega for c in cliques)
    assert cliques == sorted(cliques)


def test_brute_force_refuses_large(mgraph):
    with pytest.raises(ValueError):
        brute_force_maximum_cliques(mgraph("E7", 3))


def test_count_cliques_trivial_sizes(mgraph):
    g = mgraph("E6", 2)
    nb = g.neighbors(0)
    assert count_cliques_of_size(g, nb, 1) == nb.size
    # derived back-solve: 4320 total, 270 vertices, omega 3 -> 48 per vertex
    assert count_cliques_of_size(g, nb, 2) == 48
    with pytest.raises(ValueError):
        count_cliques_of_size(g, nb, 0)


def test_per_vertex_counts_match_back_solved_values(mgraph):
    g2 = mgraph("G2", 2)
    census = count_maximum_cliques(g2)
    assert census.per_orbit == ((6, 2),)  # (6*2)/2 = 6 cliques
    e7 = mgraph("E7", 1)
    census = count_maximum_cliques(e7)
    assert census.per_orbit == ((126, 32),)  # 576*7/126


def test_enumerate_max_cliques_through(mgraph):
    g = mgraph("F4", 4)
    cliques = list(enumerate_max_cliques_through(g, 0, 3))
    assert len(cliques) == 12
    assert all(len(c) == 3 and 0 in c for c in cliques)
    assert len(set(cliques)) == 12
    edgeless = mgraph("E7", 7)
    assert list(enumerate_max_cliques_through(edgeless, 5, 1)) == [(5,)]


def test_e7k1_thirty_two_cliques_per_vertex(mgraph):
    g = mgraph("E7", 1)
    assert sum(1 for _ in enumerate_max_cliques_through(g, 0, 7)) == 32


def test_maximal_by_size_f4_k1(mgraph):
    assert count_maximal_cliques_by_size(mgraph("F4", 1)) == {5: 336, 7: 24}


def test_maximal_by_size_edgeless(mgraph):
    assert count_maximal_cliques_by_size(mgraph("E7", 7)) == {1: 576}


def test_census_of_empty_graph(mgraph):
    g = mgraph("E6", 5)  # beyond the maximum SOS size
    assert clique_number(g) == 0
    census = count_maximum_cliques(g)
    assert census.total_maximum_cliques == 0 and census.per_orbit == ()


def _random_graph_rows(n, edges):
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return n, picked


@given(small_graphs(), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_pivot_counter_matches_naive(graph, t):
    """Oracle: test every t-subset for cliqueness directly."""
    n, edges = graph
    rows = _random_graph_rows(n, edges)
    eset = {frozenset(e) for e in edges}
    naive = sum(
        all(frozenset(p) in eset for p in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(n), t)
    )
    assert count_cliques_of_size_bitset(rows, (1 << n) - 1, t) == naive


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_bb_max_clique_matches_naive(graph):
    n, edges = graph
    rows = _random_graph_rows(n, edges)
    eset = {frozenset(e) for e in edges}
    best = 1
    for size in range(2, n + 1):
        if any(
            all(frozenset(p) in eset for p in itertools.combinations(sub, 2))
            for sub in itertools.combinations(range(n), size)
        ):
            best = size
    assert max_clique_size_bitset(rows, (1 << n) - 1) == best


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_maximal_counts_match_enumeration(graph):
    n, edges = graph
    rows = _random_graph_rows(n, edges)
    listed = list(enumerate_maximal_cliques(rows, (1 << n) - 1))
    assert len(set(listed)) == len(listed)
    by_size = {}
    for c in listed:
        by_size[len(c)] = by_size.get(len(c), 0) + 1
    assert dict(maximal_clique_size_counts(rows, (1 << n) - 1)) == by_size
    # every listed clique is maximal: no common neighbor of all members
    for c in listed:
        common = (1 << n) - 1
        for v in c:
            common &= rows[v]
        assert common == 0


@given(small_graphs(), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_collect_matches_count(graph, t):
    n, edges = graph
    rows = _random_graph_rows(n, edges)
    arr = collect_cliques_of_size(rows, (1 << n) - 1, t)
    assert arr.shape[0] == count_cliques_of_size_bitset(rows, (1 << n) - 1, t)
    as_tuples = [tuple(r) for r in arr.tolist()]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == len(as_tuples)


def test_induced_bitrows_symmetry(mgraph):
    g = mgraph("F4", 2)
    ids = np.arange(0, 60)
    rows = induced_bitrows(g, ids)
    for i in range(60):
        for j in range(60):
            assert bool(rows[i] >> j & 1) == bool(rows[j] >> i & 1)
        assert not rows[i] >> i & 1


def _stabilizer_maps(g, v):
    rs = parse_label(g.label)
    vec = tuple(int(x) for x in g.vertices.vectors[v])
    zero = tuple([0] * len(vec))
    perp = [a for a in rs.roots if a > zero and sum(x * y for x, y in zip(a, vec)) == 0]
    return [partial(reflect, alpha) for alpha in perp]


@pytest.mark.parametrize("label,k", sorted(OMEGA))
def test_two_level_matches_single_level_oracle(label, k, mgraph):
    g = mgraph(label, k)
    omega, per_orbit = single_level_census(g)
    census = count_maximum_cliques(g)
    assert clique_number(g) == census.omega == omega
    assert census.per_orbit == per_orbit
    assert census.total_maximum_cliques * omega == sum(n * c for n, c in per_orbit)


@pytest.mark.slow
def test_two_level_matches_single_level_oracle_e8_k4(mgraph):
    g = mgraph("E8", 4)
    census = count_maximum_cliques(g)
    assert (census.omega, census.per_orbit) == single_level_census(g)
    assert census.total_maximum_cliques == 635316480


@pytest.mark.parametrize("label,k", sorted(OMEGA))
def test_stabilizer_orbits_match_closure_and_fix_counts(label, k, mgraph):
    """Stab(v)-orbits partition N(v) exactly as the oracle closure under the
    reflections fixing v does, and per-neighbor counts are constant on
    each orbit, which is what the weighting relies on."""
    g = mgraph(label, k)
    omega = clique_number(g)
    for v in g.orbit_representatives():
        nb = g.neighbors(v)
        labels = closure_orbit_labels(
            [tuple(int(x) for x in g.vertices.vectors[w]) for w in nb], _stabilizer_maps(g, v)
        )
        reps, sizes = stabilizer_orbits(g, v, nb)
        assert sum(sizes) == nb.size
        assert reps == [labels.index(o) for o in range(len(reps))]
        assert sizes == np.bincount(labels, minlength=len(reps)).tolist()
        rows = induced_bitrows(g, nb)
        counts = [count_cliques_of_size_bitset(rows, rows[i], omega - 2) for i in range(nb.size)]
        assert all(counts[i] == counts[reps[labels[i]]] for i in range(nb.size))


def test_stabilizer_orbits_reject_non_invariant_subset(mgraph):
    g = mgraph("F4", 3)
    nb = g.neighbors(0)
    with pytest.raises(GroupActionError):
        stabilizer_orbits(g, 0, nb[1:])


def test_non_divisible_neighborhood_sum_raises(mgraph, monkeypatch):
    """F4 k=1: omega 7, degrees 14 and 20; adding 1 per neighbor breaks
    divisibility by omega - 1 = 6 at the Stab(v) level."""
    real = cliquemod.count_cliques_of_size_bitset
    monkeypatch.setattr(
        cliquemod, "count_cliques_of_size_bitset", lambda rows, cand, t: real(rows, cand, t) + 1
    )
    with pytest.raises(ArithmeticError, match="neighborhood clique count"):
        count_maximum_cliques(mgraph("F4", 1))


def test_non_divisible_orbit_sum_raises(mgraph):
    """Mislabel F4 k=1 as one orbit of 48 vertices: 48 * c(v0) is not a
    multiple of omega = 7, so the W level must refuse it."""
    g = mgraph("F4", 1)
    merged = dataclasses.replace(
        g, vertices=dataclasses.replace(g.vertices, orbit=np.zeros(g.n, dtype=np.int32))
    )
    with pytest.raises(ArithmeticError, match="maximum-clique count"):
        count_maximum_cliques(merged)
