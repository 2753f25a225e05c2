import pytest

from verogeo.configs import (BASE_EMBEDDED, CROSS_DOUBLE_OR_MEET_TRANSLATE,
                             CROSS_POINT_JOIN, CROSS_TRANSLATE_OF_JOIN,
                             FOUR_POINT_TRANSLATE, THREE_LINE_TYPE, THREE_POINT_WITH_2M, TWO_LINE_TYPE,
                             UNCLASSIFIABLE, FalsificationError, QuadrangleFigure,
                             ScanReport, _level2_shape, check_net_axiom,
                             check_parallelogram_completion, check_tamaschke,
                             classify_all_veblen, classify_crossing_line,
                             classify_proper_quadrangle,
                             classify_veblen_in_veronese, find_quadrangles,
                             quadrangle_crossings)
from verogeo.incidence import IncidenceStructure
from verogeo.multiset import Multiset
from verogeo.spaces import affine_space, projective_space
from verogeo.veronese import build_veronese

from oracles import adjacency_rows, crossing_rows, find_incomplete_veblen


def tops_list(V):
    return [V.block_top[i] for i in range(len(V.structure.lines))]


def open_figures(G):
    return [fig for fig in find_incomplete_veblen(G) if not fig.complete]


def test_projective_plane_is_veblenian():
    assert open_figures(projective_space(2, 3)) == []


def test_v2_pg23_is_veblenian():
    V = build_veronese(projective_space(2, 3), 2)
    assert open_figures(V.structure) == []


def test_crafted_incomplete_figure_fails():
    # an incomplete Veblen configuration with disjoint cross lines
    G = IncidenceStructure(11, [
        [0, 1, 2, 9],    # l1 through apex 0
        [0, 3, 4, 10],   # l2 through apex 0
        [1, 3, 5],       # m1
        [2, 4, 6],       # m2 (disjoint from m1)
        [5, 6, 7, 8],    # filler so m1, m2 have 3 points
    ])
    witness = open_figures(G)[0]
    assert witness.apex == 0
    assert not witness.complete
    V = build_veronese(G, 1)
    with pytest.raises(FalsificationError) as refusal:
        classify_all_veblen(V)
    assert str(refusal.value) == f"Veblen axiom fails at {open_figures(V.structure)[0]}"


def test_veblen_classification_v2_fano():
    V = build_veronese(projective_space(2, 2), 2)
    counts = classify_all_veblen(V)
    assert counts.get(UNCLASSIFIABLE, 0) == 0
    assert counts.get(FOUR_POINT_TRANSLATE, 0) == 0  # line size 3 < 4
    assert counts.get(BASE_EMBEDDED, 0) > 0
    assert counts.get(THREE_POINT_WITH_2M, 0) > 0


def test_veblen_classification_v2_pg23():
    V = build_veronese(projective_space(2, 3), 2)
    counts = classify_all_veblen(V)
    assert counts.get(UNCLASSIFIABLE, 0) == 0
    assert counts.get(FOUR_POINT_TRANSLATE, 0) > 0  # line size 4
    assert counts.get(THREE_POINT_WITH_2M, 0) > 0
    assert counts.get(BASE_EMBEDDED, 0) > 0


def test_veblen_classification_v2_pg32():
    V = build_veronese(projective_space(3, 2), 2)
    assert classify_all_veblen(V) == {BASE_EMBEDDED: 10080, THREE_POINT_WITH_2M: 210}


def test_leaf_embedded_figure_is_base_type():
    V = build_veronese(projective_space(2, 3), 2)
    # find any complete figure with all lines in one leaf
    for fig in find_incomplete_veblen(V.structure):
        if not fig.complete:
            continue
        tops = {V.block_top[b] for b in (fig.l1, fig.l2, fig.m1, fig.m2)}
        if len(tops) == 1:
            assert classify_veblen_in_veronese(V, fig) == BASE_EMBEDDED
            return
    raise AssertionError("no leaf-embedded figure found")


def test_quadrangle_classification_exhaustive_v2_pg13():
    V = build_veronese(projective_space(1, 3), 2)
    tops = tops_list(V)
    found = {TWO_LINE_TYPE: 0, THREE_LINE_TYPE: 0}
    for q in find_quadrangles(V.structure, tops):
        tag = classify_proper_quadrangle(V, q)
        assert tag != UNCLASSIFIABLE, q
        found[tag] += 1
    assert found[TWO_LINE_TYPE] > 0
    assert found[THREE_LINE_TYPE] > 0


def test_quadrangle_vertices_match_shapes():
    V = build_veronese(projective_space(2, 3), 2)
    tops = tops_list(V)
    seen = set()
    for q in find_quadrangles(V.structure, tops):
        tag = classify_proper_quadrangle(V, q)
        assert tag in (TWO_LINE_TYPE, THREE_LINE_TYPE)
        seen.add(tag)
        if len(seen) == 2:
            break
    assert seen == {TWO_LINE_TYPE, THREE_LINE_TYPE}


def test_crossing_line_classification_exhaustive_small():
    V = build_veronese(projective_space(1, 3), 2)
    tops = tops_list(V)
    cross = crossing_rows(V.structure)
    checked = 0
    for q in find_quadrangles(V.structure, tops):
        for (a, b) in q.opposite_pairs:
            for k in sorted(cross[a] & cross[b]):
                if V.block_top[k] in (V.block_top[a], V.block_top[b]):
                    continue
                tag = classify_crossing_line(V, a, b, k)
                assert tag != UNCLASSIFIABLE
                checked += 1
    assert checked > 0


def test_crossing_line_classification_exhaustive_pg23():
    # every crossing line of every opposite pair of every proper
    # quadrangle classifies; all three shapes occur
    V = build_veronese(projective_space(2, 3), 2)
    tops = tops_list(V)
    cross = crossing_rows(V.structure)
    seen = set()
    quadrangles = 0
    crossings = 0
    for q in find_quadrangles(V.structure, tops):
        quadrangles += 1
        for (a, b) in q.opposite_pairs:
            for k in sorted(cross[a] & cross[b]):
                if V.block_top[k] in (V.block_top[a], V.block_top[b]):
                    continue
                tag = classify_crossing_line(V, a, b, k)
                assert tag != UNCLASSIFIABLE, (q, a, b, k)
                crossings += 1
                seen.add(tag)
    assert quadrangles == 3003
    assert crossings == 20826
    assert seen == {CROSS_TRANSLATE_OF_JOIN, CROSS_POINT_JOIN,
                    CROSS_DOUBLE_OR_MEET_TRANSLATE}


@pytest.mark.parametrize("base,quadrangles,checked", [
    (lambda: affine_space(2, 3).base, 630, 4194),
    (lambda: projective_space(2, 2), 210, 1281),
    (lambda: projective_space(2, 3), 3003, 35451),
], ids=["AG(2,3)", "PG(2,2)", "PG(2,3)"])
def test_quadrangle_walk_compares_tops_by_value(base, quadrangles, checked):
    # the walk reads tops by equality alone: the Multiset tops, equal copies
    # of them and int labels in reverse top order give one walk and one scan
    V = build_veronese(base(), 2)
    tops = V.block_top
    copies = [Multiset(t.entries) for t in tops]
    label = {t: i for i, t in enumerate(sorted(set(tops), key=Multiset.sort_key,
                                               reverse=True))}
    ints = [label[t] for t in tops]
    walk = list(quadrangle_crossings(V.structure, tops))
    assert len(walk) == quadrangles
    assert walk == list(quadrangle_crossings(V.structure, copies))
    assert walk == list(quadrangle_crossings(V.structure, ints))
    report = check_net_axiom(V.structure, tops)
    assert report == ScanReport(True, None, checked, True)
    assert report == check_net_axiom(V.structure, copies) == check_net_axiom(V.structure, ints)


def test_net_axiom_tiny_instance():
    V = build_veronese(IncidenceStructure(3, [[0, 1, 2]]), 2)
    report = check_net_axiom(V.structure, tops_list(V))
    assert report.ok
    assert report.exhaustive


def test_tamaschke_affine_plane():
    A = affine_space(2, 3)
    report = check_tamaschke(A.base, A.class_of())
    assert report.ok
    assert report.exhaustive


def test_tamaschke_broken_preparallelism():
    A = affine_space(2, 3)
    class_of = A.class_of()
    # merge class 1 into class 0: "parallel" lines now cross
    broken = {li: (0 if ci == 1 else ci) for li, ci in class_of.items()}
    report = check_tamaschke(A.base, broken)
    assert not report.ok
    assert report.witness is not None


def test_parallelogram_completion_affine_plane():
    A = affine_space(2, 3)
    report = check_parallelogram_completion(A.base, A.class_of())
    assert report.ok


def test_parallelogram_completion_missing_fourth_crossing():
    # L2 and M2 never meet although the other three crossings exist
    G = IncidenceStructure(10, [
        [0, 1, 2],   # L1
        [3, 8, 9],   # L2
        [0, 3, 6],   # M1
        [1, 4, 7],   # M2
    ])
    class_of = {0: 0, 1: 0, 2: 1, 3: 1}
    report = check_parallelogram_completion(G, class_of)
    assert not report.ok
    assert report.witness == (0, 1, 2, 3)


def test_parallelogram_completion_counts_past_a_clean_class_pair():
    # class 1 meets both parallels of class 0 everywhere: C(3,2) = 3
    # configurations, no violation.  In class 2 the pairs come in the order
    # (N1, N1b) with all four crossings, (N1, N2) with two and (N1, N3) with
    # three, so the scan stops after 3 + 3 configurations.
    G = IncidenceStructure(16, [
        [0, 1, 2],     # L1
        [3, 4, 5],     # L2
        [0, 3, 6],     # M1
        [1, 4, 7],     # M2
        [2, 5, 8],     # M3
        [0, 5, 9],     # N1 meets L1 and L2
        [2, 3, 15],    # N1b meets L1 and L2
        [10, 11, 12],  # N2 meets neither
        [1, 13, 14],   # N3 meets L1 only
    ])
    class_of = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2}
    report = check_parallelogram_completion(G, class_of)
    assert not report.ok
    assert report.witness == (0, 1, 5, 8)
    assert report.checked == 6
    assert report.exhaustive


def test_quadrangle_classification_exhaustive_v2_ag23():
    # the affine plane has 3-point lines, so four-translate-of-one-line
    # quadrangles cannot occur; both shapes still classify everywhere
    V = build_veronese(affine_space(2, 3).base, 2)
    tops = tops_list(V)
    found = {TWO_LINE_TYPE: 0, THREE_LINE_TYPE: 0}
    for q in find_quadrangles(V.structure, tops):
        tag = classify_proper_quadrangle(V, q)
        assert tag != UNCLASSIFIABLE, q
        found[tag] += 1
    assert found[TWO_LINE_TYPE] > 0
    assert found[THREE_LINE_TYPE] > 0
    assert sum(found.values()) == 630


def test_veblen_adjacent_crossing_pair_forces_one_leaf():
    # an incomplete Veblen figure whose crossing points pair up adjacently
    # lies in one leaf, hence closes when the base closes
    V = build_veronese(projective_space(2, 3), 2)
    G = V.structure
    adj = adjacency_rows(G)
    confined = 0
    for fig in find_incomplete_veblen(G):
        l1, l2, m1, m2 = fig.l1, fig.l2, fig.m1, fig.m2
        p11 = next(iter(G.lines[l1] & G.lines[m1]))
        p22 = next(iter(G.lines[l2] & G.lines[m2]))
        p12 = next(iter(G.lines[l1] & G.lines[m2]))
        p21 = next(iter(G.lines[l2] & G.lines[m1]))
        if p22 in adj[p11] or p21 in adj[p12]:
            confined += 1
            tops = {V.block_top[b] for b in (l1, l2, m1, m2)}
            assert len(tops) == 1
            assert fig.complete
    assert confined > 0


def test_three_line_shape_needs_the_translate_point_on_m():
    # lines (2n, a+m, c+n, b+l) with vertices {2a, a+c, 2b, b+c}, where
    # a, b lie on n and l joins b, c, but m passes through a and misses c
    base = projective_space(2, 3)
    V = build_veronese(base, 2)
    block = {_level2_shape(V, bi): bi for bi in range(len(V.structure.lines))}
    n = base.lines[0]
    a, b = sorted(n)[:2]
    c = next(q for q in base.points if q not in n)
    l = next(L for L in base.lines if {b, c} <= L)
    m = next(L for L in base.lines if a in L and c not in L and L != n)
    q = QuadrangleFigure(
        (block[None, n], block[a, m], block[c, n], block[b, l]),
        (V.pair[a][a], V.pair[a][c], V.pair[b][c], V.pair[b][b]))
    assert classify_proper_quadrangle(V, q) == UNCLASSIFIABLE
