import numpy as np
import pytest

from sosgraphs import iso as isomod
from sosgraphs.graph import SOSGraph, stats
from sosgraphs.iso import (
    check_degree_formula,
    check_f4k4_structure,
    check_graph_isomorphism_small,
    check_mod8,
    check_scaling_isomorphism,
    check_weyl_automorphism,
    count_automorphisms_small,
)
from sosgraphs.roots import build_root_system

from oracles import as_tuples, placeholder_vertex_set


def test_scaling_isomorphisms():
    assert check_scaling_isomorphism(build_root_system("E6"), 1, 4)
    assert not check_scaling_isomorphism(build_root_system("E7"), 1, 7)


@pytest.mark.slow
def test_scaling_isomorphism_e8():
    assert check_scaling_isomorphism(build_root_system("E8"), 2, 8)


def test_scaling_implies_equal_stats(gamma):
    s1 = stats(gamma("E6", 1))
    s4 = stats(gamma("E6", 4))
    assert (s1.n, s1.m, s1.min_degree, s1.max_degree) == (
        s4.n, s4.m, s4.min_degree, s4.max_degree,
    )


def test_mod8_e6_and_e7():
    rep = check_mod8(build_root_system("E6"))  # top level: max SOS size 4
    assert rep == {"ok": True, "pairs": 72 * 71 // 2}
    rep = check_mod8(build_root_system("E7"))
    assert rep == {"ok": True, "pairs": 576 * 575 // 2}


@pytest.mark.slow
def test_mod8_e8():
    rep = check_mod8(build_root_system("E8"))
    assert rep == {"ok": True, "pairs": 2160 * 2159 // 2}


def test_e7_top_level_norm_rules_out_edges(gamma):
    # doubled vertex norm 8k = 56 is 24 mod 32, while differences are
    # 0 mod 32, so no difference is a vertex: the graph is edgeless
    g = gamma("E7", 7)
    norms = (g.vertices.vectors.astype(np.int64) ** 2).sum(axis=1)
    assert set(norms.tolist()) == {56}
    assert 56 % 32 != 0
    assert g.edge_count == 0


@pytest.mark.parametrize("label,deg", [("E6", 20), ("E7", 32), ("E8", 56)])
def test_degree_formula(label, deg):
    rs = build_root_system(label)
    assert 2 * (rs.coxeter_number - 2) == deg
    assert check_degree_formula(rs)


def test_degree_formula_a1():
    assert check_degree_formula(build_root_system("A", 1))


def test_weyl_automorphism_exhaustive(gamma):
    rep = check_weyl_automorphism(gamma("F4", 3), build_root_system("F4"))
    assert rep == {"ok": True, "reflections": 4}


def test_weyl_automorphism_e8_every_pair(mgraph):
    """All 2160 x 2160 pairs of E8 k=2, on the graph with no edge list."""
    rep = check_weyl_automorphism(mgraph("E8", 2), build_root_system("E8"))
    assert rep == {"ok": True, "reflections": 8}


def test_weyl_automorphism_detects_a_non_automorphism(mgraph, monkeypatch):
    """A permutation swapping a degree-4 and a degree-6 vertex of G2 k=1
    preserves no adjacency structure, so the first reflection fails."""
    g = mgraph("G2", 1)
    degrees = [g.neighbors(v).size for v in range(g.n)]
    swap = np.arange(g.n)
    a, b = degrees.index(4), degrees.index(6)
    swap[[a, b]] = swap[[b, a]]
    monkeypatch.setattr(isomod, "reflection_permutations", lambda roots, rows: [swap] * len(roots))
    rep = check_weyl_automorphism(g, build_root_system("G2"))
    assert rep == {"ok": False, "reflections": 2, "failed_reflection": 0}


def test_exhaustive_checks_refuse_graphs_above_bound(mgraph, monkeypatch):
    """E8 k=3 has 6720 vertices, above the bound of 5000; the mod-8 check
    runs at the bound and refuses one vertex past it."""
    assert mgraph("E8", 3).n == 6720 > isomod.DEFAULT_ISO_BOUND
    with pytest.raises(ValueError, match="6720 vertices exceed the exhaustive bound 5000"):
        check_weyl_automorphism(mgraph("E8", 3), build_root_system("E8"))
    monkeypatch.setattr(isomod, "DEFAULT_ISO_BOUND", 576)
    assert check_mod8(build_root_system("E7"))["ok"]
    monkeypatch.setattr(isomod, "DEFAULT_ISO_BOUND", 575)
    with pytest.raises(ValueError, match="576 vertices exceed the exhaustive bound 575"):
        check_mod8(build_root_system("E7"))


@pytest.mark.parametrize("pairs", [0, -5])
def test_weyl_automorphism_rejects_sample_pairs_below_one(mgraph, pairs):
    """The check has no sampled mode, so it takes no sample_pairs at all."""
    with pytest.raises(TypeError, match="sample_pairs"):
        check_weyl_automorphism(mgraph("G2", 1), build_root_system("G2"), sample_pairs=pairs)


def test_weyl_automorphism_edgeless(gamma):
    rep = check_weyl_automorphism(gamma("E7", 7), build_root_system("E7"))
    assert rep["ok"]


def test_f4k4_isomorphic_to_d4_level1(gamma):
    g1 = gamma("F4", 4)
    g2 = gamma("D4", 1)
    ok, mapping = check_graph_isomorphism_small(g1, g2)
    assert ok
    # explicit bijection maps edges onto edges, verified here independently
    perm = np.array(mapping)
    adj2 = [set(g2.neighbors(v).tolist()) for v in range(g2.n)]
    for v in range(g1.n):
        for w in g1.neighbors(v):
            assert int(perm[w]) in adj2[int(perm[v])]
    # D4 level-1 vertex set is the k=4 vertex set halved
    halves = {tuple(int(x) // 2 for x in row) for row in g1.vertices.vectors}
    assert halves == set(as_tuples(g2.vertices))


def test_e6_level1_isomorphic_level4(gamma):
    ok, mapping = check_graph_isomorphism_small(gamma("E6", 1), gamma("E6", 4))
    assert ok and mapping is not None


def test_non_isomorphic_cases(gamma):
    ok, mapping = check_graph_isomorphism_small(gamma("G2", 1), gamma("G2", 2))
    assert not ok and mapping is None
    # same counts, different structure: edgeless 6-graph vs hexagon
    ok, _ = check_graph_isomorphism_small(gamma("G2", 2), gamma("G2", 2))
    assert ok


def test_isomorphism_bound(gamma):
    with pytest.raises(ValueError):
        check_graph_isomorphism_small(gamma("E7", 3), gamma("E7", 3), bound=100)


def test_f4k4_structure(gamma):
    assert check_f4k4_structure(gamma("F4", 4))


def test_f4k4_automorphism_order(gamma):
    assert count_automorphisms_small(gamma("F4", 4)) == 1152


def test_g2_hexagon_automorphisms(gamma):
    # the level-2 graph is a 6-cycle: dihedral symmetry of order 12
    assert count_automorphisms_small(gamma("G2", 2)) == 12


def _cycles(*lengths) -> SOSGraph:
    """Disjoint cycles of the given lengths, on placeholder vertex rows."""
    rows, start = [], 0
    for length in lengths:
        rows += [sorted({start + (i - 1) % length, start + (i + 1) % length})
                 for i in range(length)]
        start += length
    vs = placeholder_vertex_set(
        "G2", np.zeros((start, 3), dtype=np.int32), np.zeros(start, dtype=np.int32)
    )
    return SOSGraph(vertices=vs, indptr=np.cumsum([0] + [len(r) for r in rows]),
                    indices=np.array([w for r in rows for w in r], dtype=np.int32))


def test_search_rejects_what_refinement_cannot_split():
    """C8 and two disjoint C4 are both 2-regular and triangle-free, so colour
    refinement leaves one cell on each side and the search must reject."""
    assert check_graph_isomorphism_small(_cycles(8), _cycles(4, 4)) == (False, None)
    assert count_automorphisms_small(_cycles(8)) == 16
