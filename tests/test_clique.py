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
    carried_neighborhoods,
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
from sosgraphs.graph import GroupActionError, restricted_orbits, stabilizer_action
from sosgraphs.roots import parse_label

from oracles import (
    closure_orbit_labels,
    count_cliques_of_size,
    enumerate_max_cliques_through,
    pivot_clique_count,
    reflect,
    single_level_census,
    two_level_census,
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


@given(small_graphs(), st.integers(0, 5), st.one_of(st.just(-1), st.integers(0, (1 << 12) - 1)))
@settings(max_examples=120, deadline=None)
def test_pivot_counter_matches_naive(graph, t, bits):
    """The ordered counter against every t-subset of the candidates tested
    for cliqueness directly, and against the pivoted counter; -1 draws
    the whole vertex set, any other value a subset."""
    n, edges = graph
    rows = _random_graph_rows(n, edges)
    cand = bits & ((1 << n) - 1)
    eset = {frozenset(e) for e in edges}
    naive = sum(
        all(frozenset(p) in eset for p in itertools.combinations(sub, 2))
        for sub in itertools.combinations([i for i in range(n) if cand >> i & 1], t)
    )
    assert count_cliques_of_size_bitset(rows, cand, t) == naive
    assert pivot_clique_count(rows, cand, t) == naive


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


def _stabilizer_maps(g, fixed):
    """The reflections in the positive roots orthogonal to every fixed vertex."""
    rs = parse_label(g.label)
    vecs = [tuple(int(x) for x in g.vertices.vectors[v]) for v in fixed]
    zero = tuple([0] * len(vecs[0]))
    perp = [
        a for a in rs.roots
        if a > zero and all(sum(x * y for x, y in zip(a, vec)) == 0 for vec in vecs)
    ]
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
def test_three_level_matches_two_level_oracle(label, k, mgraph):
    g = mgraph(label, k)
    census = count_maximum_cliques(g)
    assert (census.omega, census.per_orbit) == two_level_census(g)


@pytest.mark.slow
@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_three_level_matches_two_level_oracle_e8(k, mgraph):
    g = mgraph("E8", k)
    census = count_maximum_cliques(g)
    assert (census.omega, census.per_orbit) == two_level_census(g)


@pytest.mark.parametrize("label,k", sorted(OMEGA))
def test_stabilizer_orbits_match_closure_and_fix_counts(label, k, mgraph):
    """Stab(v)-orbits partition N(v) exactly as the oracle closure under the
    reflections fixing v does, and per-neighbor counts are constant on
    each orbit, which is what the weighting relies on."""
    g = mgraph(label, k)
    omega = clique_number(g)
    for v, hood in zip(g.orbit_representatives(), carried_neighborhoods(g)):
        nb = hood.members
        labels = closure_orbit_labels(
            [tuple(int(x) for x in g.vertices.vectors[w]) for w in nb], _stabilizer_maps(g, [v])
        )
        assert sum(hood.sizes) == nb.size
        assert hood.reps == [labels.index(o) for o in range(len(hood.reps))]
        assert hood.sizes == np.bincount(labels, minlength=len(hood.reps)).tolist()
        rows = induced_bitrows(g, nb)
        counts = [count_cliques_of_size_bitset(rows, rows[i], omega - 2) for i in range(nb.size)]
        assert all(counts[i] == counts[hood.reps[labels[i]]] for i in range(nb.size))


def test_stabilizer_orbits_reject_non_invariant_subset(mgraph):
    g = mgraph("F4", 3)
    nb = g.neighbors(0)
    with pytest.raises(GroupActionError):
        stabilizer_action(g, 0, nb[1:])
    perms = stabilizer_action(g, 0, nb)[1]
    with pytest.raises(GroupActionError):
        restricted_orbits(perms, np.arange(1, nb.size))


def _fixing(g, hood, w):
    """The Stab(v) generators that also fix the local vertex w."""
    keep = ~(hood.roots @ g.vertices.vectors[hood.members[w]]).astype(bool)
    return [perm for perm, kept in zip(hood.perms, keep) if kept]


@pytest.mark.parametrize("label,k", [("E7", 4), ("E8", 3)])
def test_pointwise_stabilizer_orbits_match_closure(label, k, mgraph):
    """W_{v,w}-orbits on C_w = N(v) & N(w), from the Stab(v) permutations
    restricted to C_w, partition C_w exactly as the oracle closure under
    the reflections fixing v and w does, per-vertex counts are constant
    on them, and a subset that is not invariant raises."""
    g = mgraph(label, k)
    omega = clique_number(g)
    refused = 0
    for v, hood in zip(g.orbit_representatives(), carried_neighborhoods(g)):
        nb = hood.members
        rows = induced_bitrows(g, nb)
        for w in hood.reps:
            local = np.array([i for i in range(nb.size) if rows[w] >> i & 1])
            common = nb[local]
            labels = closure_orbit_labels(
                [tuple(int(x) for x in g.vertices.vectors[u]) for u in common],
                _stabilizer_maps(g, [v, int(nb[w])]),
            )
            reps, sizes = restricted_orbits(_fixing(g, hood, w), local)
            assert sum(sizes) == common.size
            assert reps == [labels.index(o) for o in range(len(reps))]
            assert sizes == np.bincount(labels, minlength=len(reps)).tolist()
            counts = [
                count_cliques_of_size_bitset(rows, rows[w] & rows[u], omega - 3) for u in local
            ]
            assert all(counts[i] == counts[reps[labels[i]]] for i in range(len(local)))
            if sizes and sizes[0] > 1:
                with pytest.raises(GroupActionError):
                    restricted_orbits(_fixing(g, hood, w), local[1:])
                refused += 1
    assert refused


@pytest.mark.parametrize("label,k", [("F4", 1), ("E7", 4), ("E8", 3)])
def test_restriction_to_a_non_invariant_common_neighborhood_raises(label, k, mgraph):
    """A Stab(v) generator that moves w maps C_w = N(v) & N(w) onto
    C_{s.w}; restricted to C_w, its images escape, which must raise."""
    g = mgraph(label, k)
    hood = next(carried_neighborhoods(g))
    escaped = 0
    for w in hood.reps:
        local = np.flatnonzero(hood.adjacency[w])
        for perm in hood.perms:
            if perm[w] != w and not np.array_equal(np.sort(perm[local]), local):
                with pytest.raises(GroupActionError):
                    restricted_orbits([perm], local)
                escaped += 1
    assert escaped


TIER1_ROWS = sorted(OMEGA)
DEEP_ROWS = [("E7", 4), *(("E8", k) for k in range(3, 8))]


@pytest.mark.parametrize("label,k", [
    *TIER1_ROWS, *(pytest.param(*row, marks=pytest.mark.slow) for row in DEEP_ROWS),
])
def test_carried_rows_match_induced_rows(label, k, mgraph):
    """Rows carried from one w per Stab(v)-orbit equal the all-pairs
    induction bit for bit."""
    g = mgraph(label, k)
    for hood in carried_neighborhoods(g):
        assert hood.rows == induced_bitrows(g, hood.members)


@pytest.mark.parametrize("label,k", [("F4", 3), ("E6", 3), ("E7", 3), ("E8", 2)])
def test_census_never_induces_rows(label, k, mgraph, monkeypatch):
    """With the all-pairs induction refused, the clique, sunflower and
    maximal-clique censuses still give the pinned values: they read only
    carried rows."""
    from sosgraphs import sunflower as sunmod

    from test_acceptance import SUNFLOWERS

    def refuse(*args):
        raise AssertionError("induced_bitrows called")

    for module in (cliquemod, sunmod):
        monkeypatch.setattr(module, "induced_bitrows", refuse, raising=False)
    g = mgraph(label, k)
    assert count_maximum_cliques(g).total_maximum_cliques == TOTALS[(label, k)]
    census = sunmod.count_sunflower_max_cliques(g, parse_label(label))
    assert (census.total_maximum_cliques, census.sunflower_cliques) == SUNFLOWERS[(label, k)][:2]
    by_size = count_maximal_cliques_by_size(g)
    assert by_size[OMEGA[(label, k)]] == TOTALS[(label, k)]


def test_non_divisible_common_neighborhood_sum_raises(mgraph, monkeypatch):
    """F4 k=1: omega 7, and the first C_w has 6 vertices; adding 1 per
    call breaks divisibility by omega - 2 = 5 at the W_{v,w} level."""
    real = cliquemod.count_cliques_of_size_bitset
    monkeypatch.setattr(
        cliquemod, "count_cliques_of_size_bitset", lambda rows, cand, t: real(rows, cand, t) + 1
    )
    with pytest.raises(ArithmeticError, match=r"clique count of N\(v\) & N\(w\)"):
        count_maximum_cliques(mgraph("F4", 1))


def test_non_divisible_neighborhood_sum_raises(mgraph, monkeypatch):
    """F4 k=1: omega 7. At the first vertex the Stab(v)-orbits have sizes
    8, 6, 6 with 0, 1, 1 cliques of size 5 in C_w; one more vertex in each
    gives 9*0 + 7*1 + 7*1 = 14, not a multiple of omega - 1 = 6, while
    the W_{v,w} level is left exact."""
    real = cliquemod.restricted_orbits

    def grown(perms, members):
        reps, sizes = real(perms, members)
        whole = len(perms) > 0 and members.size == perms[0].size  # all of N(v): Stab(v)
        return reps, [s + 1 for s in sizes] if whole else sizes

    monkeypatch.setattr(cliquemod, "restricted_orbits", grown)
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
